package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// snoopyEngine is the naive snoopy design of §III-A: private, dirty
// (write-back) DRAM caches kept coherent by broadcasting every local miss to
// all remote sockets, which must probe their DRAM caches before the request
// can complete. The furthest socket's probe is therefore always on the
// critical path — the slow-remote-hit pathology.
type snoopyEngine struct {
	m *Machine
}

// probeSocket models a snoop arriving at a remote socket: the socket checks
// its on-chip hierarchy and its DRAM cache (both must be consulted because
// the DRAM cache can hold dirty data under the write-back policy) and sends
// its response back to the requester. It returns the response arrival time,
// whether the socket had a dirty copy, and whether it had any copy at all.
func (e *snoopyEngine) probeSocket(now sim.Time, requester, target *Socket, b addr.Block, invalidate bool) (resp sim.Time, dirty, present bool) {
	m := e.m
	arr := m.sendControl(now, requester, target)
	// On-chip probe (LLC tags).
	t := arr.Add(m.cfg.LLCTagLatency)
	state, chipDirty, onChip := target.probeOnChip(b)
	// DRAM cache probe: unavoidable under the dirty policy, and the reason
	// snoopy performs poorly — the remote DRAM cache access is on the
	// critical path of every miss.
	m.counters.RemoteDRAMProbes++
	line, inDC, probeDone := target.dramCache.Probe(t, b)
	t = probeDone
	present = onChip || inDC
	dirty = (onChip && (chipDirty || state == coherence.LineModified)) || (inDC && line.Dirty)

	if invalidate {
		target.invalidateOnChip(b)
		target.dramCache.Invalidate(b)
	} else if dirty {
		// A read snoop downgrades the dirty copy; the data is forwarded to
		// the requester and memory stays stale (the forwarded copy remains
		// the owner under the dirty policy, held Shared+dirty in the DRAM
		// cache so a later eviction writes it back).
		target.downgradeOnChip(b)
	}
	if dirty || present {
		resp = m.sendData(t, target, requester)
	} else {
		resp = m.sendControl(t, target, requester)
	}
	return resp, dirty, present
}

func (e *snoopyEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	// Local DRAM cache first.
	res := sock.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := res.Done
	home := m.home(b)

	// Broadcast snoops to every remote socket and, in parallel, fetch the
	// block from its home memory. The requester must wait for every snoop
	// response before it can use the memory data (a dirty copy may exist
	// anywhere), so the slowest responder bounds the completion time.
	var slowest sim.Time
	dirtyFound := false
	for _, target := range m.sockets {
		if target == sock {
			continue
		}
		resp, dirty, _ := e.probeSocket(t, sock, target, b, false)
		slowest = sim.Max(slowest, resp)
		dirtyFound = dirtyFound || dirty
	}
	memDone := m.sendData(m.memRead(dirRequestArrival(m, t, sock, home), home, sock, b), home, sock)
	if dirtyFound {
		// The dirty owner supplied the data; memory's (stale) response is
		// discarded but its latency was overlapped with the snoops.
		return slowest
	}
	return sim.Max(slowest, memDone)
}

func (e *snoopyEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	// The local DRAM cache may hold the data, but invalidations must still
	// reach every other socket.
	res := sock.dramCache.Access(now, b, true)
	t := res.Done
	if !res.Hit {
		t = res.Done
	}
	home := m.home(b)

	var slowest sim.Time
	dirtyFound := false
	for _, target := range m.sockets {
		if target == sock {
			continue
		}
		resp, dirty, _ := e.probeSocket(t, sock, target, b, true)
		slowest = sim.Max(slowest, resp)
		dirtyFound = dirtyFound || dirty
	}
	haveLocalData := upgrade || res.Hit
	if dirtyFound || haveLocalData {
		return sim.Max(slowest, t)
	}
	memDone := m.sendData(m.memRead(dirRequestArrival(m, t, sock, home), home, sock, b), home, sock)
	return sim.Max(slowest, memDone)
}

func (e *snoopyEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	// Dirty-victim-cache organisation (§III): the DRAM cache absorbs the
	// victim, dirty or clean; memory is written only when the DRAM cache
	// itself evicts a dirty block.
	action := core.DirtyLLCEviction(victim.State, victim.Dirty)
	if !action.FillLocalDRAMCache {
		return
	}
	fill := sock.dramCache.Fill(now, victim.Block, victim.State, action.FillDirty)
	if fill.Victim.Valid && core.DRAMCacheEvictionNeedsWriteback(false, fill.Victim.Dirty) {
		home := m.home(fill.Victim.Block)
		wb := m.sendData(now, sock, home)
		m.memWrite(wb, home, sock, fill.Victim.Block)
	}
}
