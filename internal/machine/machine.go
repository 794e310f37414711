package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/dramcache"
	"c3d/internal/interconnect"
	"c3d/internal/numa"
	"c3d/internal/sim"
	"c3d/internal/stats"
	"c3d/internal/tlb"
	"c3d/internal/workload"
)

// Machine is the complete simulated NUMA system.
type Machine struct {
	cfg     Config
	spec    DesignSpec // cfg.Design's table entry, resolved once by New
	sockets []*Socket
	fabric  *interconnect.Fabric

	pageTable  *numa.PageTable
	classifier *tlb.Classifier
	filter     *core.BroadcastFilter

	engine Engine

	// counters holds the machine-level counts not owned by a component.
	counters    Counters
	loadLatency stats.LatencyAccumulator

	// ran is set once RunSource starts a trace: a machine runs one trace,
	// so a second RunSource is refused rather than run on warm state.
	ran bool
}

// New builds a machine from cfg. It panics on an invalid configuration
// (construction happens at experiment-setup time where misconfiguration
// should fail loudly). The design and the fabric topology both resolve
// through their tables: there is no design or topology switch here to
// extend.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	spec := mustDesignSpec(cfg.Design)
	m := &Machine{cfg: cfg, spec: spec}
	for s := 0; s < cfg.Sockets; s++ {
		m.sockets = append(m.sockets, newSocket(s, cfg, spec))
	}
	icCfg, err := cfg.fabricConfig()
	if err != nil {
		// Unreachable: Validate resolved the same fabric config above.
		panic(err)
	}
	m.fabric = interconnect.New(icCfg)
	if cfg.ZeroHopLatency {
		m.fabric.SetZeroLatency()
	}
	if cfg.InfiniteLinkBW {
		m.fabric.SetInfiniteBandwidth()
	}
	m.pageTable = numa.NewPageTable(cfg.Sockets, cfg.MemPolicy)
	m.classifier = tlb.NewClassifier()
	m.filter = core.NewBroadcastFilter(m.classifier, cfg.EnableBroadcastFilter)

	// Sparse directory slices prefer to victimise entries whose block has
	// already left every on-chip cache. The LLCs are inclusive of the L1s,
	// so probing the LLCs is sufficient, and no design with a sparse slice
	// needs the DRAM caches probed: the baseline has none, shared's are not
	// tracked by the directory, and c3d's are clean. The probe touches no
	// LRU state or statistics, so the slice may ask about as few ways as it
	// likes.
	uncached := func(b addr.Block) bool {
		for _, s := range m.sockets {
			if s.llc.Contains(b) {
				return false
			}
		}
		return true
	}
	for _, s := range m.sockets {
		if s.dir != nil {
			s.dir.SetStalePredicate(uncached)
		}
	}

	m.engine = spec.NewEngine(m)
	return m
}

// Config returns the machine's configuration.
//
//c3dlint:allow unused(the configuration the machine tests read cache geometry and latencies from)
func (m *Machine) Config() Config { return m.cfg }

// Sockets returns the machine's sockets.
//
//c3dlint:allow unused(the sockets whose caches the machine tests and TestWarmedStateMatchesGolden inspect)
func (m *Machine) Sockets() []*Socket { return m.sockets }

// Fabric returns the inter-socket interconnect.
//
//c3dlint:allow unused(the fabric whose topology TestMachineBuildsSelectedTopology checks)
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// PageTable returns the NUMA page table.
//
//c3dlint:allow unused(the page table the placement tests read homes from)
func (m *Machine) PageTable() *numa.PageTable { return m.pageTable }

// socketOf returns the socket owning the given global core id.
func (m *Machine) socketOf(coreID int) *Socket {
	return m.sockets[coreID/m.cfg.CoresPerSocket]
}

// home returns the home socket of a block according to the page table.
func (m *Machine) home(b addr.Block) *Socket {
	return m.sockets[m.pageTable.HomeOfBlock(b)]
}

// --- cpu.MemorySystem implementation ---

// Read performs a load issued by coreID at time now.
func (m *Machine) Read(now sim.Time, coreID int, a addr.Addr) sim.Time {
	sock := m.socketOf(coreID)
	b := addr.BlockOf(a)
	m.counters.Loads++
	m.classify(coreID, a)

	// L1.
	l1 := sock.l1Of(coreID)
	t := now.Add(m.cfg.L1Latency)
	if _, hit := l1.Lookup(b); hit {
		m.loadLatency.Observe(uint64(t.Sub(now)))
		return t
	}
	// LLC (the local directory lookup is part of the LLC tag access).
	m.counters.LLCAccesses++
	if _, hit := sock.llc.Lookup(b); hit {
		t = t.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		m.fillL1(sock, coreID, b, coherence.LineShared)
		m.loadLatency.Observe(uint64(t.Sub(now)))
		return t
	}
	t = t.Add(m.cfg.LLCTagLatency)
	m.counters.LLCMisses++
	if m.home(b) != sock {
		m.counters.RemoteLLCMisses++
	}
	done := m.engine.ReadMiss(t, sock, coreID, b)
	m.fillLLC(done, sock, coreID, b, coherence.LineShared, false)
	m.fillL1(sock, coreID, b, coherence.LineShared)
	m.loadLatency.Observe(uint64(done.Sub(now)))
	return done
}

// Write performs a store issued by coreID at time now and returns the time
// the store is globally performed.
func (m *Machine) Write(now sim.Time, coreID int, a addr.Addr) sim.Time {
	sock := m.socketOf(coreID)
	b := addr.BlockOf(a)
	m.counters.Stores++
	m.classify(coreID, a)

	l1 := sock.l1Of(coreID)
	t := now.Add(m.cfg.L1Latency)
	if line, hit := l1.Lookup(b); hit && line.State == coherence.LineModified {
		// Write hit with ownership already held by this core.
		m.markLLCDirty(sock, b)
		return t
	}
	// LLC lookup: a Modified LLC line means the socket already owns the
	// block; within-socket sharing is resolved by the local directory
	// (modelled as the LLC tag+data latency).
	m.counters.LLCAccesses++
	line, hit := sock.llc.Lookup(b)
	if hit && line.State == coherence.LineModified {
		t = t.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		line.Dirty = true
		sock.invalidateL1sExcept(coreID, b)
		m.fillL1(sock, coreID, b, coherence.LineModified)
		return t
	}
	t = t.Add(m.cfg.LLCTagLatency)
	upgrade := hit && line.State == coherence.LineShared
	m.counters.LLCMisses++
	if m.home(b) != sock {
		m.counters.RemoteLLCMisses++
	}
	done := m.engine.WriteMiss(t, sock, coreID, b, upgrade)
	m.fillLLC(done, sock, coreID, b, coherence.LineModified, true)
	sock.invalidateL1sExcept(coreID, b)
	m.fillL1(sock, coreID, b, coherence.LineModified)
	return done
}

// classify records the access with the OS page classifier (used by the §IV-D
// broadcast filter).
func (m *Machine) classify(coreID int, a addr.Addr) {
	// Threads are pinned in this simulator, so the thread id equals the core
	// id and migrations never occur.
	m.classifier.Access(addr.PageOf(a), coreID, coreID)
}

// fillL1 installs the block in the requesting core's L1. L1 victims are
// dropped silently: the L1s are write-through into the LLC, so no data is
// lost and the LLC inclusive copy keeps intra-socket coherence simple.
func (m *Machine) fillL1(sock *Socket, coreID int, b addr.Block, st cache.State) {
	sock.l1Of(coreID).Fill(b, st, false)
}

// markLLCDirty marks the block dirty in the LLC (stores are write-through
// from the L1 into the LLC so the LLC dirty bit is authoritative).
func (m *Machine) markLLCDirty(sock *Socket, b addr.Block) {
	if line, ok := sock.llc.Probe(b); ok {
		line.Dirty = true
		line.State = coherence.LineModified
	}
}

// fillLLC installs the block in the socket's LLC and routes the victim (if
// any) to the engine's eviction handler.
func (m *Machine) fillLLC(now sim.Time, sock *Socket, coreID int, b addr.Block, st cache.State, dirty bool) {
	victim := sock.llc.Fill(b, st, dirty)
	if victim.Valid {
		// The victim also disappears from the L1s (inclusive hierarchy).
		for _, l1 := range sock.l1s {
			l1.Invalidate(victim.Block)
		}
		m.engine.LLCEvict(now, sock, victim)
	}
}

// --- shared helpers used by the design engines ---

// sendControl models a 16-byte control packet between sockets and returns its
// arrival time.
func (m *Machine) sendControl(now sim.Time, from, to *Socket) sim.Time {
	return m.fabric.Send(now, from.id, to.id, interconnect.Control)
}

// sendData models an 80-byte data packet between sockets and returns its
// arrival time.
func (m *Machine) sendData(now sim.Time, from, to *Socket) sim.Time {
	return m.fabric.Send(now, from.id, to.id, interconnect.Data)
}

// memRead reads the block from its home memory and accounts whether the
// requester was remote.
func (m *Machine) memRead(now sim.Time, homeSock *Socket, requester *Socket, b addr.Block) sim.Time {
	m.counters.MemReads++
	if homeSock != requester {
		m.counters.RemoteMemReads++
	}
	return homeSock.mem.Read(now, b)
}

// memWrite writes the block to its home memory and accounts whether the
// writer was remote.
func (m *Machine) memWrite(now sim.Time, homeSock *Socket, requester *Socket, b addr.Block) {
	m.counters.MemWrites++
	if homeSock != requester {
		m.counters.RemoteMemWrites++
	}
	homeSock.mem.Write(now, b)
}

// homeRead is the home port's read: it returns when the home socket can
// send b to requester. Under MemorySide the home's DRAM cache answers first,
// and a miss reads memory and fills the cache clean.
func (m *Machine) homeRead(now sim.Time, home, requester *Socket, b addr.Block) sim.Time {
	if !m.spec.MemorySide {
		return m.memRead(now, home, requester, b)
	}
	res := home.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := m.memRead(res.Done, home, requester, b)
	m.homeFill(t, home, b, false)
	return t
}

// homeWrite is the home port's write of b's data, arrived from writer at
// now. Under MemorySide the data lands dirty in the home's DRAM cache, and
// memory is updated when that cache evicts it.
func (m *Machine) homeWrite(now sim.Time, home, writer *Socket, b addr.Block) {
	if !m.spec.MemorySide {
		m.memWrite(now, home, writer, b)
		return
	}
	m.homeFill(now, home, b, true)
}

// homeFill installs b in the home's memory-side DRAM cache. A dirty victim
// is written to the memory the cache fronts, with no interconnect traffic.
func (m *Machine) homeFill(now sim.Time, home *Socket, b addr.Block, dirty bool) {
	if v := home.dramCache.Fill(now, b, coherence.LineShared, dirty).Victim; v.Valid && v.Dirty {
		m.memWrite(now, home, home, v.Block)
	}
}

// privateDRAMCache returns s's DRAM cache if the design places it beside
// the socket's LLC, and nil for the baseline and the memory-side design.
func (m *Machine) privateDRAMCache(s *Socket) *dramcache.Cache {
	if m.spec.MemorySide {
		return nil
	}
	return s.dramCache
}

// forwardRead is a read forwarded by the home directory to the socket that
// holds b Modified on chip: the owner downgrades to Shared, writes the data
// home off the critical path, and sends it to the requester. It returns the
// data's arrival at the requester.
func (m *Machine) forwardRead(now sim.Time, home, owner, requester *Socket, b addr.Block) sim.Time {
	t := m.sendControl(now, home, owner).Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
	owner.downgradeOnChip(b)
	m.homeWrite(m.sendData(t, owner, home), home, owner, b)
	return m.sendData(t, owner, requester)
}

// forwardWrite is a write forwarded by the home directory to the socket that
// holds b Modified on chip: the owner drops every copy, its private DRAM
// cache's included, and sends the data to the requester. It returns the
// data's arrival, which also acknowledges the owner's invalidation.
func (m *Machine) forwardWrite(now sim.Time, home, owner, requester *Socket, b addr.Block) sim.Time {
	t := m.sendControl(now, home, owner).Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
	owner.invalidateOnChip(b)
	if dc := m.privateDRAMCache(owner); dc != nil {
		dc.Invalidate(b)
	}
	return m.sendData(t, owner, requester)
}

// serveRead is a read's data leg as the home directory decided it: a
// forward to the on-chip owner, or the home's own copy.
func (m *Machine) serveRead(now sim.Time, home, requester *Socket, b addr.Block, act core.Action) sim.Time {
	if act.Source == core.FromOwnerLLC {
		return m.forwardRead(now, home, m.sockets[act.Owner], requester, b)
	}
	return m.sendData(m.homeRead(now, home, requester, b), home, requester)
}

// serveWrite is a write's legs when the home holds the data: the
// invalidations of targets and, in parallel, the data, or only the grant
// when the requester already has the data. It returns when the last of them
// reaches the requester.
func (m *Machine) serveWrite(now sim.Time, home, requester *Socket, b addr.Block, targets coherence.SharerSet, haveData bool) sim.Time {
	done := now
	targets.ForEach(func(sidx int) {
		done = sim.Max(done, m.invalidateSharer(now, home, m.sockets[sidx], requester, b))
	})
	if haveData {
		return sim.Max(done, m.sendControl(now, home, requester))
	}
	return sim.Max(done, m.sendData(m.homeRead(now, home, requester, b), home, requester))
}

// invalidateSharer sends an invalidation of b from the home to target,
// which drops its on-chip copies and its private DRAM cache's copy (paying
// that cache's access), and returns when target's acknowledgement reaches
// the requester.
func (m *Machine) invalidateSharer(now sim.Time, home, target, requester *Socket, b addr.Block) sim.Time {
	inv := m.sendControl(now, home, target)
	target.invalidateOnChip(b)
	if dc := m.privateDRAMCache(target); dc != nil {
		dc.Invalidate(b)
		inv = inv.Add(sim.NsToCycles(m.cfg.DRAMCacheLatencyNs))
	}
	return m.sendControl(inv, target, requester)
}

// fillVictimCache is the dirty-victim-cache organisation of §III: the
// socket's private DRAM cache absorbs an LLC victim, dirty or clean, and
// memory is written only when the DRAM cache itself evicts a dirty block.
// It returns the DRAM cache's victim.
func (m *Machine) fillVictimCache(now sim.Time, sock *Socket, victim cache.Victim) cache.Victim {
	action := core.DirtyLLCEviction(victim.State, victim.Dirty)
	if !action.FillLocalDRAMCache {
		return cache.Victim{}
	}
	v := sock.dramCache.Fill(now, victim.Block, victim.State, action.FillDirty).Victim
	if v.Valid && v.Dirty {
		home := m.home(v.Block)
		m.homeWrite(m.sendData(now, sock, home), home, sock, v.Block)
	}
	return v
}

// dirTransition looks b up in home's directory slice and runs the design's
// Fig. 5 transition for req from the requester socket, counting a broadcast
// the directory decides on or the private-page filter avoids. The caller
// stores the next entry, unless the action is stale.
func (m *Machine) dirTransition(home *Socket, b addr.Block, requester int, req core.Request, pagePrivate bool) (coherence.Entry, core.Action) {
	cur, _ := home.dir.Lookup(b)
	next, act := core.Transition(m.spec.Dir, cur, requester, req, pagePrivate)
	if act.Broadcast {
		m.counters.Broadcasts++
	}
	if act.BroadcastAvoided {
		m.counters.BroadcastsAvoided++
	}
	return next, act
}

// dirLatency returns the global directory access latency.
func (m *Machine) dirLatency() sim.Cycles { return m.cfg.GlobalDirLatency }

// Counters returns the machine-level counters accumulated since the machine
// was built or last warmed up. Broadcast counts are zero for the designs
// whose directory never broadcasts.
//
//c3dlint:allow unused(the counters the machine tests check protocol behaviour with)
func (m *Machine) Counters() Counters {
	c := m.tally().Counters
	c.MeanLoadLatency = m.loadLatency.Mean()
	return c
}

// Counters is the exported snapshot of machine-level accounting. Every
// uint64 field is a count that sampled runs extrapolate (see tally).
type Counters struct {
	Loads             uint64
	Stores            uint64
	LLCAccesses       uint64
	LLCMisses         uint64
	RemoteLLCMisses   uint64 // LLC misses whose home is a remote socket
	MemReads          uint64
	MemWrites         uint64
	RemoteMemReads    uint64
	RemoteMemWrites   uint64
	Broadcasts        uint64
	BroadcastsAvoided uint64
	DirRecalls        uint64
	RemoteDRAMProbes  uint64 // probes of remote DRAM caches (snoopy/full-dir pathology)
	MeanLoadLatency   float64
}

// MemAccesses returns total memory accesses.
func (c Counters) MemAccesses() uint64 { return c.MemReads + c.MemWrites }

// RemoteMemAccesses returns memory accesses served by a remote socket's
// memory.
func (c Counters) RemoteMemAccesses() uint64 { return c.RemoteMemReads + c.RemoteMemWrites }

// RemoteMemFraction returns the Table I metric: the fraction of memory
// accesses satisfied by a remote socket's memory.
func (c Counters) RemoteMemFraction() float64 {
	total := c.MemAccesses()
	if total == 0 {
		return 0
	}
	return float64(c.RemoteMemAccesses()) / float64(total)
}

// LLCMissRate returns LLC misses per LLC access.
func (c Counters) LLCMissRate() float64 {
	if c.LLCAccesses == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.LLCAccesses)
}

// resetStats clears every statistic in the machine (cores excepted — the
// runner resets those) without touching cache or directory contents.
func (m *Machine) resetStats() {
	m.counters, m.loadLatency = Counters{}, stats.LatencyAccumulator{}
	m.fabric.ResetStats()
	for _, s := range m.sockets {
		s.resetStats()
	}
	m.filter.ResetStats()
}

// CheckInvariants verifies cross-cutting invariants after a run; it returns
// an error describing the first violation. It checks the per-design DRAM
// cache rules: a C3D machine must never hold a dirty block in any DRAM cache
// (the clean property), and a memory-side DRAM cache holds only blocks
// homed at its socket.
func (m *Machine) CheckInvariants() error {
	for _, s := range m.sockets {
		if s.dramCache == nil {
			continue
		}
		if m.spec.CleanDRAMCache && s.dramCache.HasDirtyBlocks() {
			return fmt.Errorf("machine: socket %d DRAM cache holds dirty blocks under the clean policy", s.id)
		}
		if !m.spec.MemorySide {
			continue
		}
		stray := 0
		s.dramCache.ForEach(func(l cache.Line) {
			if m.home(l.Block) != s {
				stray++
			}
		})
		if stray > 0 {
			return fmt.Errorf("machine: socket %d memory-side DRAM cache holds %d blocks homed elsewhere", s.id, stray)
		}
	}
	return nil
}

// workloadOptions returns the workload generation options matching this
// machine's scale and core count, so experiments cannot accidentally mismatch
// the two.
func (m *Machine) workloadOptions() workload.Options {
	return workload.Options{Threads: m.cfg.Cores(), Scale: m.cfg.Scale}
}
