package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// fullDirEngine is the naive directory design of §III-B: private, dirty
// (write-back) DRAM caches tracked by an inclusive global directory that
// covers every cached block in the system. The directory is modelled
// optimistically, exactly as the paper does: unbounded capacity (no recalls)
// and the baseline's 10-cycle access latency, even though a real
// implementation would need tens to hundreds of megabytes per socket
// (coherence.InclusiveDirCost quantifies that).
//
// Its remaining weakness is inherent: a block that is dirty in a remote
// socket's DRAM cache must be fetched from that DRAM cache, which is slower
// than the memory access the baseline would have performed.
type fullDirEngine struct {
	m *Machine
}

func init() {
	RegisterDesign(DesignSpec{
		Name:             FullDir,
		Description:      "private dirty DRAM caches tracked by an idealised inclusive full directory (§III-B)",
		Rank:             2,
		Evaluated:        true,
		HasDRAMCache:     true,
		PrivateDRAMCache: true,
		NewEngine:        func(m *Machine) Engine { return &fullDirEngine{m: m} },
		// The paper models the naive full directory without recalls
		// (unbounded) and with the baseline's 10-cycle latency, an
		// optimistic assumption it calls out explicitly.
		NewDirectories: UnboundedGenericDirectory,
	})
}

func (e *fullDirEngine) Name() string { return "full-dir" }

func (e *fullDirEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	res := sock.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	entry, ok := home.dir.Lookup(b)
	if ok && entry.State == coherence.DirModified && entry.Owner != sock.id {
		// Dirty in a remote socket. Probe its on-chip hierarchy first; if the
		// dirty data has been evicted into the remote DRAM cache, the access
		// pays the full remote-DRAM-cache latency — the slow-remote-hit
		// pathology (§III-B, Fig. 4).
		owner := m.sockets[entry.Owner]
		t = m.sendControl(t, home, owner)
		t = t.Add(m.cfg.LLCTagLatency)
		state, chipDirty, onChip := owner.probeOnChip(b)
		if onChip && (chipDirty || state == coherence.LineModified) {
			t = t.Add(m.cfg.LLCDataLatency)
			owner.downgradeOnChip(b)
			// The downgraded data is written back so memory is usable for
			// later readers.
			wb := m.sendData(t, owner, home)
			m.memWrite(wb, home, owner, b)
			if line, okDC, _ := owner.dramCache.Probe(t, b); okDC && line.Dirty {
				owner.dramCache.CleanBlock(b)
			}
		} else {
			// The dirty block lives only in the owner's DRAM cache.
			m.counters.RemoteDRAMProbes++
			_, _, probeDone := owner.dramCache.Probe(t, b)
			t = probeDone
			owner.dramCache.CleanBlock(b)
			wb := m.sendData(t, owner, home)
			m.memWrite(wb, home, owner, b)
		}
		t = m.sendData(t, owner, sock)
		home.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: entry.Sharers.Add(entry.Owner).Add(sock.id),
		})
		return t
	}
	// Clean (Shared) or untracked: memory supplies the data without touching
	// any remote DRAM cache.
	t = m.memRead(t, home, sock, b)
	t = m.sendData(t, home, sock)
	home.dir.Update(b, coherence.Entry{State: coherence.DirShared, Sharers: entry.Sharers.Add(sock.id)})
	return t
}

func (e *fullDirEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	res := sock.dramCache.Access(now, b, true)
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	entry, _ := home.dir.Lookup(b)
	var dataDone, acksDone sim.Time

	if entry.State == coherence.DirModified && entry.Owner != sock.id {
		owner := m.sockets[entry.Owner]
		fwd := m.sendControl(t, home, owner)
		fwd = fwd.Add(m.cfg.LLCTagLatency)
		state, chipDirty, onChip := owner.probeOnChip(b)
		if onChip && (chipDirty || state == coherence.LineModified) {
			fwd = fwd.Add(m.cfg.LLCDataLatency)
		} else {
			m.counters.RemoteDRAMProbes++
			_, _, probeDone := owner.dramCache.Probe(fwd, b)
			fwd = probeDone
		}
		owner.invalidateOnChip(b)
		owner.dramCache.Invalidate(b)
		dataDone = m.sendData(fwd, owner, sock)
		acksDone = dataDone
	} else {
		// Invalidate precisely the tracked sharers (their DRAM caches
		// included); data comes from memory in parallel unless the requester
		// already holds it.
		acksDone = t
		entry.Sharers.Others(sock.id).ForEach(func(sidx int) {
			sharer := m.sockets[sidx]
			inv := m.sendControl(t, home, sharer)
			sharer.invalidateOnChip(b)
			sharer.dramCache.Invalidate(b)
			inv = inv.Add(sim.NsToCycles(m.cfg.DRAMCacheLatencyNs))
			ack := m.sendControl(inv, sharer, sock)
			acksDone = sim.Max(acksDone, ack)
		})
		if upgrade || res.Hit {
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(m.memRead(t, home, sock, b), home, sock)
		}
	}
	done := sim.Max(dataDone, acksDone)
	home.dir.Update(b, coherence.Entry{
		State:   coherence.DirModified,
		Owner:   sock.id,
		Sharers: coherence.NewSharerSet(sock.id),
	})
	return done
}

func (e *fullDirEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	// Same dirty-victim-cache behaviour as the snoopy design; the directory
	// keeps tracking the socket (it already does, since the directory is
	// inclusive of the DRAM cache).
	action := core.DirtyLLCEviction(victim.State, victim.Dirty)
	if !action.FillLocalDRAMCache {
		return
	}
	fill := sock.dramCache.Fill(now, victim.Block, victim.State, action.FillDirty)
	if fill.Victim.Valid {
		home := m.home(fill.Victim.Block)
		if core.DRAMCacheEvictionNeedsWriteback(false, fill.Victim.Dirty) {
			wb := m.sendData(now, sock, home)
			m.memWrite(wb, home, sock, fill.Victim.Block)
		}
		// Tell the (unbounded) directory this socket no longer caches the
		// victim, so later writes do not invalidate it needlessly.
		if entry, ok := home.dir.Probe(fill.Victim.Block); ok {
			if !sock.llc.Contains(fill.Victim.Block) {
				entry.Sharers = entry.Sharers.Remove(sock.id)
				if entry.State == coherence.DirModified && entry.Owner == sock.id {
					entry.State = coherence.DirShared
				}
				if entry.Sharers.Empty() {
					home.dir.Remove(fill.Victim.Block)
				} else {
					home.dir.Update(fill.Victim.Block, entry)
				}
				m.sendControl(now, sock, home)
			}
		}
	}
}
