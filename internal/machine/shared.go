package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

// sharedEngine is the shared (memory-side) DRAM cache organisation of §II-C:
// each socket's DRAM cache fronts that socket's memory and caches only
// addresses homed there. Aggregate capacity scales with the socket count and
// no coherence is needed (an address can live in exactly one DRAM cache), but
// every LLC miss to a remote home still crosses the interconnect — the design
// filters memory accesses, not off-socket traffic.
//
// On-chip coherence is identical to the baseline's directory scheme.
type sharedEngine struct {
	m *Machine
}

// memOrDRAMCacheRead reads the block at its home socket, checking the home's
// memory-side DRAM cache before memory, and returns the completion time.
func (e *sharedEngine) memOrDRAMCacheRead(now sim.Time, home, requester *Socket, b addr.Block) sim.Time {
	m := e.m
	res := home.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := m.memRead(res.Done, home, requester, b)
	// Install the block in the memory-side cache (it caches memory, so the
	// fill happens on the memory-side of the home socket and is clean with
	// respect to the on-chip hierarchy; dirty data arrives later via
	// write-backs).
	fill := home.dramCache.Fill(t, b, coherence.LineShared, false)
	e.writebackVictim(t, home, fill.Victim)
	return t
}

// writebackVictim writes a dirty memory-side-cache victim back to the home's
// memory (no interconnect traffic: the cache sits next to the memory it
// fronts).
func (e *sharedEngine) writebackVictim(now sim.Time, home *Socket, victim cache.Victim) {
	if victim.Valid && victim.Dirty {
		e.m.memWrite(now, home, home, victim.Block)
	}
}

func (e *sharedEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	entry, ok := home.dir.Lookup(b)
	if ok && entry.State == coherence.DirModified && entry.Owner != sock.id {
		owner := m.sockets[entry.Owner]
		t = m.sendControl(t, home, owner)
		t = t.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		owner.downgradeOnChip(b)
		wb := m.sendData(t, owner, home)
		fill := home.dramCache.Fill(wb, b, coherence.LineShared, true)
		e.writebackVictim(wb, home, fill.Victim)
		t = m.sendData(t, owner, sock)
		recall := home.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: entry.Sharers.Add(entry.Owner).Add(sock.id),
		})
		handleRecall(m, t, home, recall)
		return t
	}
	t = e.memOrDRAMCacheRead(t, home, sock, b)
	t = m.sendData(t, home, sock)
	recall := home.dir.Update(b, coherence.Entry{State: coherence.DirShared, Sharers: entry.Sharers.Add(sock.id)})
	handleRecall(m, t, home, recall)
	return t
}

func (e *sharedEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	entry, _ := home.dir.Lookup(b)
	var dataDone, acksDone sim.Time

	switch {
	case entry.State == coherence.DirModified && entry.Owner != sock.id:
		owner := m.sockets[entry.Owner]
		fwd := m.sendControl(t, home, owner)
		fwd = fwd.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		owner.invalidateOnChip(b)
		dataDone = m.sendData(fwd, owner, sock)
		acksDone = dataDone
	case entry.State == coherence.DirShared:
		acksDone = t
		entry.Sharers.Others(sock.id).ForEach(func(sidx int) {
			sharer := m.sockets[sidx]
			inv := m.sendControl(t, home, sharer)
			sharer.invalidateOnChip(b)
			ack := m.sendControl(inv, sharer, sock)
			acksDone = sim.Max(acksDone, ack)
		})
		if upgrade {
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(e.memOrDRAMCacheRead(t, home, sock, b), home, sock)
		}
	default:
		if upgrade {
			dataDone = m.sendControl(t, home, sock)
		} else {
			dataDone = m.sendData(e.memOrDRAMCacheRead(t, home, sock, b), home, sock)
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

func (e *sharedEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	home := m.home(victim.Block)
	if victim.Dirty {
		wb := m.sendData(now, sock, home)
		// The dirty data lands in the home's memory-side DRAM cache; memory
		// is updated when that cache eventually evicts it.
		fill := home.dramCache.Fill(wb, victim.Block, coherence.LineShared, true)
		e.writebackVictim(wb, home, fill.Victim)
		home.dir.Remove(victim.Block)
		m.sendControl(wb, home, sock)
	}
}
