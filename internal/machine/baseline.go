package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// baselineEngine is the reference machine of §V-A: the per-socket LLCs are
// kept coherent by a sparse global directory at each block's home socket.
// It has no DRAM caches of its own; the shared design (§II-C) runs on it
// with a memory-side DRAM cache behind the home port.
type baselineEngine struct {
	m *Machine
}

// dirLookupAt models the request's trip to the home directory: the control
// message (if the home is remote) plus the directory access latency.
func dirRequestArrival(m *Machine, now sim.Time, sock, home *Socket) sim.Time {
	t := m.sendControl(now, sock, home)
	return t.Add(m.dirLatency())
}

// handleRecall invalidates the on-chip copies tracked by a recalled directory
// entry; the traffic is control-only unless a Modified copy has to be written
// back. Recalls are off the requesting core's critical path.
func handleRecall(m *Machine, now sim.Time, home *Socket, recall coherence.Recall) {
	if !recall.Valid {
		return
	}
	m.counters.DirRecalls++
	targets := recall.Entry.Sharers
	if recall.Entry.State == coherence.DirModified {
		targets = coherence.NewSharerSet(recall.Entry.Owner)
	}
	targets.ForEach(func(sidx int) {
		target := m.sockets[sidx]
		arr := m.sendControl(now, home, target)
		victim := target.invalidateOnChip(recall.Block)
		if victim.Valid && victim.Dirty {
			// The dirty copy is written back through the home port, like
			// every other write-back.
			m.homeWrite(m.sendData(arr, target, home), home, target, recall.Block)
		} else {
			m.sendControl(arr, target, home)
		}
		// Under the clean-cache designs the recalled copy may legitimately be
		// retained in the target's DRAM cache: clean DRAM-cache blocks are
		// untracked by design, and a later write will reach them via the
		// broadcast path. The recall only needs the on-chip copy gone.
		if victim.Valid && m.spec.CleanDRAMCache {
			target.dramCache.Fill(arr, recall.Block, coherence.LineShared, false)
		}
	})
}

func (e *baselineEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)
	// The owner forwards a block dirty in another socket's on-chip
	// hierarchy; otherwise the home supplies it.
	next, act := m.dirTransition(home, b, sock.id, core.GetS, false)
	t = m.serveRead(t, home, sock, b, act)
	handleRecall(m, t, home, home.dirUpdate(b, next, act))
	return t
}

func (e *baselineEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	next, act := m.dirTransition(home, b, sock.id, core.GetX, false)
	var done sim.Time
	if act.Source == core.FromOwnerLLC {
		// Ownership transfer: the previous owner forwards the (possibly
		// dirty) block and invalidates its copies.
		done = m.forwardWrite(t, home, m.sockets[act.Owner], sock, b)
	} else {
		// Invalidate the tracked sharers; the home, up to date unless a
		// socket owns the block, supplies the data in parallel.
		done = m.serveWrite(t, home, sock, b, act.Invalidate, upgrade)
	}
	handleRecall(m, done, home, home.dirUpdate(b, next, act))
	return done
}

func (e *baselineEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	home := m.home(victim.Block)
	if victim.Dirty {
		// Write the dirty block back to its home and notify the directory
		// (PutX). Off the requesting core's critical path.
		wb := m.sendData(now, sock, home)
		m.homeWrite(wb, home, sock, victim.Block)
		next, act := m.dirTransition(home, victim.Block, sock.id, core.PutX, false)
		home.dirUpdate(victim.Block, next, act)
		m.sendControl(wb, home, sock) // write-back acknowledgement
		return
	}
	// Clean victims are dropped silently; the directory's sharer vector
	// remains a (safe) superset.
}
