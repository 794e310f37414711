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

	next, act := m.dirTransition(home, b, sock.id, core.GetS, false)
	if act.Source == core.FromOwnerLLC {
		// Dirty in a remote socket. Probe its on-chip hierarchy first; if the
		// dirty data has been evicted into the remote DRAM cache, the access
		// pays the full remote-DRAM-cache latency — the slow-remote-hit
		// pathology (§III-B, Fig. 4).
		owner := m.sockets[act.Owner]
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
	} else {
		// Clean (Shared) or untracked: memory supplies the data without
		// touching any remote DRAM cache.
		t = m.sendData(m.homeRead(t, home, sock, b), home, sock)
	}
	home.dirUpdate(b, next, act)
	return t
}

func (e *fullDirEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	res := sock.dramCache.Access(now, b, true)
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	next, act := m.dirTransition(home, b, sock.id, core.GetX, false)
	var done sim.Time
	if act.Source == core.FromOwnerLLC {
		owner := m.sockets[act.Owner]
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
		done = m.sendData(fwd, owner, sock)
	} else {
		// Invalidate precisely the tracked sharers (their DRAM caches
		// included); data comes from memory in parallel unless the requester
		// already holds it.
		done = m.serveWrite(t, home, sock, b, act.Invalidate, upgrade || res.Hit)
	}
	home.dirUpdate(b, next, act)
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
	// victim (a PutX, which drops the socket from the sharers), so later
	// writes do not invalidate it needlessly.
	home := m.home(v.Block)
	if sock.llc.Contains(v.Block) {
		return
	}
	if next, act := m.dirTransition(home, v.Block, sock.id, core.PutX, false); !act.Keep {
		home.dir.Update(v.Block, next)
		m.sendControl(now, sock, home)
	}
}
