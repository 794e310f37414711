package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
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
			// Straight to memory: a recalled write-back bypasses the home
			// port, and so any memory-side DRAM cache.
			wb := m.sendData(arr, target, home)
			m.memWrite(wb, home, target, recall.Block)
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

	entry, ok := home.dir.Lookup(b)
	if ok && entry.State == coherence.DirModified && entry.Owner != sock.id {
		// The block is dirty in another socket's on-chip hierarchy: forward
		// the request to the owner.
		t = m.forwardRead(t, home, m.sockets[entry.Owner], sock, b)
		recall := home.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: entry.Sharers.Add(entry.Owner).Add(sock.id),
		})
		handleRecall(m, t, home, recall)
		return t
	}
	// Shared or untracked: the home socket supplies the data.
	t = m.homeRead(t, home, sock, b)
	t = m.sendData(t, home, sock)
	sharers := entry.Sharers.Add(sock.id)
	recall := home.dir.Update(b, coherence.Entry{State: coherence.DirShared, Sharers: sharers})
	handleRecall(m, t, home, recall)
	return t
}

func (e *baselineEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	entry, _ := home.dir.Lookup(b)
	var dataDone, acksDone sim.Time

	switch {
	case entry.State == coherence.DirModified && entry.Owner != sock.id:
		// Ownership transfer: the previous owner forwards the (possibly
		// dirty) block and invalidates its copies.
		owner := m.sockets[entry.Owner]
		fwd := m.sendControl(t, home, owner)
		fwd = fwd.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		owner.invalidateOnChip(b)
		dataDone = m.sendData(fwd, owner, sock)
		acksDone = dataDone
	case entry.State == coherence.DirShared:
		// Invalidate the tracked sharers; data comes from the home (which is
		// up to date for Shared blocks) in parallel.
		acksDone = t
		entry.Sharers.Others(sock.id).ForEach(func(sidx int) {
			acksDone = sim.Max(acksDone, m.invalidateSharer(t, home, m.sockets[sidx], sock, b))
		})
		if upgrade {
			// The requester already holds the data; only the grant returns.
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(m.homeRead(t, home, sock, b), home, sock)
		}
	default:
		// Untracked: the home supplies the data, nobody to invalidate.
		if upgrade {
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(m.homeRead(t, home, sock, b), home, sock)
		}
		acksDone = dataDone
	}
	done := sim.Max(dataDone, acksDone)
	recall := home.dir.Update(b, coherence.Entry{
		State:   coherence.DirModified,
		Owner:   sock.id,
		Sharers: coherence.NewSharerSet(sock.id),
	})
	handleRecall(m, done, home, recall)
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
		home.dir.Remove(victim.Block)
		m.sendControl(wb, home, sock) // write-back acknowledgement
		return
	}
	// Clean victims are dropped silently; the directory's sharer vector
	// remains a (safe) superset.
}
