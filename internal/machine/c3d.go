package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// c3dEngine implements the proposed design (§IV) and, when the socket
// directories are built with TrackDRAMCache, the idealised c3d-full-dir
// variant of §V-A. Its defining behaviours:
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

// c3dDirectories builds C3D's non-inclusive directory slice: sized like the
// baseline's sparse directory, tracking on-chip copies only.
func c3dDirectories(id int, cfg Config) SocketDirectories {
	return SocketDirectories{C3D: core.NewDirectory(core.DirConfig{
		Name:    fmt.Sprintf("gdir.%d", id),
		Sockets: cfg.Sockets,
		Entries: cfg.DirEntries(),
		Ways:    cfg.DirWays,
	})}
}

// c3dFullDirectories builds c3d-full-dir's idealised directory slice:
// unbounded, and tracking DRAM cache blocks too.
func c3dFullDirectories(id int, cfg Config) SocketDirectories {
	return SocketDirectories{C3D: core.NewDirectory(core.DirConfig{
		Name:           fmt.Sprintf("gdir.%d", id),
		Sockets:        cfg.Sockets,
		TrackDRAMCache: true,
	})}
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

	dec := home.c3dDir.HandleGetS(b, sock.id)
	handleRecall(m, t, home, dec.Recall)
	if dec.Source == core.FromOwnerLLC {
		// The only possible Modified copies are on-chip (clean DRAM caches),
		// so the forward always terminates at the owner's LLC — never at a
		// remote DRAM cache. Its write-back keeps memory up to date so the
		// directory's Shared invariant holds.
		return m.forwardRead(t, home, m.sockets[dec.Owner], sock, b)
	}
	// Memory supplies the data; remote DRAM caches are bypassed entirely.
	t = m.homeRead(t, home, sock, b)
	return m.sendData(t, home, sock)
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
	dec := home.c3dDir.HandleGetX(b, sock.id, pagePrivate)
	handleRecall(m, t, home, dec.Recall)

	var dataDone, acksDone sim.Time
	acksDone = t

	switch {
	case dec.Source == core.FromOwnerLLC:
		// Ownership transfer from the previous owner's on-chip hierarchy;
		// its whole hierarchy (DRAM cache included) is invalidated.
		owner := m.sockets[dec.Owner]
		fwd := m.sendControl(t, home, owner)
		fwd = fwd.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		owner.invalidateOnChip(b)
		owner.dramCache.Invalidate(b)
		dataDone = m.sendData(fwd, owner, sock)
		acksDone = dataDone
	case dec.Broadcast:
		// Untracked block: invalidate every other socket's DRAM cache (and
		// any on-chip Shared copies). The invalidations are acknowledged to
		// the requester; stores are off the critical path, so the extra
		// latency is usually hidden by the store queue (§IV-B).
		for _, target := range m.sockets {
			if target != sock {
				acksDone = sim.Max(acksDone, m.invalidateSharer(t, home, target, sock, b))
			}
		}
		dataDone = e.writeData(t, sock, home, b, upgrade || res.Hit)
	default:
		// Tracked block (or an untracked block of a private page): precise
		// invalidations to the recorded sharers, which may be none.
		dec.Invalidate.ForEach(func(sidx int) {
			acksDone = sim.Max(acksDone, m.invalidateSharer(t, home, m.sockets[sidx], sock, b))
		})
		dataDone = e.writeData(t, sock, home, b, upgrade || res.Hit)
	}
	return sim.Max(dataDone, acksDone)
}

// writeData models the data (or dataless grant) leg of a write request.
func (e *c3dEngine) writeData(now sim.Time, sock, home *Socket, b addr.Block, haveData bool) sim.Time {
	m := e.m
	if haveData {
		return m.sendControl(now, home, sock)
	}
	return m.sendData(m.homeRead(now, home, sock, b), home, sock)
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
			home.c3dDir.HandlePutX(victim.Block, sock.id)
			m.sendControl(wb, home, sock) // write-back acknowledgement
		}
	}
	if action.FillLocalDRAMCache {
		// Victim-cache fill; always clean. DRAM-cache victims are silently
		// dropped (they are clean by construction).
		sock.dramCache.Fill(now, victim.Block, victim.State, false)
	}
}
