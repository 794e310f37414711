package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

// fullDirEngine is the naive directory design of §III-B: private, dirty
// (write-back) DRAM caches tracked by an inclusive global directory that
// covers every cached block in the system. The directory is modelled
// optimistically, exactly as the paper does: unbounded capacity (no recalls)
// and the baseline's 10-cycle access latency, even though a real
// implementation would need tens to hundreds of megabytes per socket (§III-B:
// 32 MB for a 2x-provisioned directory over a 256 MB DRAM cache, 128 MB over
// a 1 GB one).
//
// Its remaining weakness is inherent: a block that is dirty in a remote
// socket's DRAM cache must be fetched from that DRAM cache, which is slower
// than the memory access the baseline would have performed.
type fullDirEngine struct {
	m *Machine
}

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
			m.homeWrite(m.sendData(t, owner, home), home, owner, b)
			if line, okDC, _ := owner.dramCache.Probe(t, b); okDC && line.Dirty {
				owner.dramCache.CleanBlock(b)
			}
		} else {
			// The dirty block lives only in the owner's DRAM cache.
			m.counters.RemoteDRAMProbes++
			_, _, probeDone := owner.dramCache.Probe(t, b)
			t = probeDone
			owner.dramCache.CleanBlock(b)
			m.homeWrite(m.sendData(t, owner, home), home, owner, b)
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
	t = m.homeRead(t, home, sock, b)
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
			acksDone = sim.Max(acksDone, m.invalidateSharer(t, home, m.sockets[sidx], sock, b))
		})
		if upgrade || res.Hit {
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(m.homeRead(t, home, sock, b), home, sock)
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
	v := m.fillVictimCache(now, sock, victim)
	if !v.Valid {
		return
	}
	// Tell the (unbounded) directory this socket no longer caches the
	// victim, so later writes do not invalidate it needlessly.
	home := m.home(v.Block)
	if entry, ok := home.dir.Probe(v.Block); ok && !sock.llc.Contains(v.Block) {
		entry.Sharers = entry.Sharers.Remove(sock.id)
		if entry.State == coherence.DirModified && entry.Owner == sock.id {
			entry.State = coherence.DirShared
		}
		if entry.Sharers.Empty() {
			home.dir.Remove(v.Block)
		} else {
			home.dir.Update(v.Block, entry)
		}
		m.sendControl(now, sock, home)
	}
}
