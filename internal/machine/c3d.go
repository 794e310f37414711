package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// c3dEngine implements the proposed design (§IV) and, with its directory's
// traits, the idealised c3d-full-dir variant of §V-A. Its defining behaviours:
//
//   - DRAM caches are clean: LLC dirty evictions are written through to
//     memory while a clean copy is retained locally, so no remote DRAM cache
//     can ever hold the only valid copy of a block.
//   - Read misses therefore never probe a remote DRAM cache: they are served
//     by the home memory or, for blocks Modified on-chip elsewhere, by the
//     owning socket's LLC.
//   - The global directory is non-inclusive: it does not track blocks that
//     live only in DRAM caches. Writes to untracked blocks broadcast
//     invalidations to all DRAM caches — off the critical path, filtered for
//     thread-private pages when the §IV-D classifier is enabled.
type c3dEngine struct {
	m *Machine
}

func (e *c3dEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	// Fast path: the local (clean) DRAM cache.
	res := sock.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	next, act := m.dirTransition(home, b, sock.id, core.GetS, false)
	handleRecall(m, t, home, home.dirUpdate(b, next, act))
	// The only possible Modified copies are on-chip (clean DRAM caches), so
	// a forward always terminates at the owner's LLC — never at a remote
	// DRAM cache. Otherwise memory supplies the data, and remote DRAM
	// caches are bypassed entirely.
	return m.serveRead(t, home, sock, b, act)
}

func (e *c3dEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	// The local DRAM cache can supply the data (it is clean, so memory holds
	// the same bytes); permission still comes from the home directory.
	res := sock.dramCache.Access(now, b, true)
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	pagePrivate := m.filter.PagePrivate(b, coreID)
	next, act := m.dirTransition(home, b, sock.id, core.GetX, pagePrivate)
	handleRecall(m, t, home, home.dirUpdate(b, next, act))

	if act.Source == core.FromOwnerLLC {
		// Ownership transfer from the previous owner's on-chip hierarchy;
		// its whole hierarchy (DRAM cache included) is invalidated.
		return m.forwardWrite(t, home, m.sockets[act.Owner], sock, b)
	}
	// Precise invalidations to the tracked sharers, which may be none; or,
	// for an untracked block, a broadcast to every other socket's DRAM
	// cache (and any on-chip Shared copies). The invalidations are
	// acknowledged to the requester; stores are off the critical path, so
	// the extra latency is usually hidden by the store queue (§IV-B).
	targets := act.Invalidate
	if act.Broadcast {
		targets = coherence.AllSockets(len(m.sockets)).Others(sock.id)
	}
	return m.serveWrite(t, home, sock, b, targets, upgrade || res.Hit)
}

func (e *c3dEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	action := core.CleanLLCEviction(victim.State, victim.Dirty)
	if action.WriteToMemory {
		// Write-through: memory stays up to date (the clean property). Off
		// the requesting core's critical path.
		home := m.home(victim.Block)
		wb := m.sendData(now, sock, home)
		m.homeWrite(wb, home, sock, victim.Block)
		if action.NotifyDirectory {
			next, act := m.dirTransition(home, victim.Block, sock.id, core.PutX, false)
			home.dirUpdate(victim.Block, next, act)
			m.sendControl(wb, home, sock) // write-back acknowledgement
		}
	}
	if action.FillLocalDRAMCache {
		// Victim-cache fill; always clean. DRAM-cache victims are silently
		// dropped (they are clean by construction).
		sock.dramCache.Fill(now, victim.Block, victim.State, false)
	}
}
