package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/cpu"
	"c3d/internal/dram"
	"c3d/internal/dramcache"
	"c3d/internal/sim"
)

// Socket is one NUMA socket: its cores with private L1s, the shared LLC, the
// optional DRAM cache, the memory controller owning this socket's share of
// physical memory, and this socket's slice of the global directory.
type Socket struct {
	id  int
	cfg Config

	cores []*cpu.Core
	l1s   []*cache.Cache
	llc   *cache.Cache

	dramCache *dramcache.Cache // nil for the Baseline design; memory-side under SharedDRAM
	mem       *dram.Controller

	// dir is this socket's slice of the global directory, organised as the
	// design's table entry says and moved by core.Transition with its
	// traits. Nil for snoopy, whose snoops replace the directory.
	dir *coherence.Directory
}

// newSocket builds socket id from the machine configuration; the design spec
// says which directory slice it gets.
func newSocket(id int, cfg Config, spec DesignSpec) *Socket {
	s := &Socket{id: id, cfg: cfg}
	for c := 0; c < cfg.CoresPerSocket; c++ {
		coreID := id*cfg.CoresPerSocket + c
		s.cores = append(s.cores, cpu.New(cpu.Config{
			ID:                coreID,
			StoreQueueEntries: cfg.StoreQueueEntries,
		}))
		s.l1s = append(s.l1s, cache.New(cache.Config{
			Name:      fmt.Sprintf("l1.%d", coreID),
			SizeBytes: cfg.ScaledL1Size(),
			Ways:      cfg.L1Ways,
		}))
	}
	s.llc = cache.New(cache.Config{
		Name:      fmt.Sprintf("llc.%d", id),
		SizeBytes: cfg.ScaledLLCSize(),
		Ways:      cfg.LLCWays,
	})
	s.mem = dram.New(dram.Config{
		Name:                fmt.Sprintf("mem.%d", id),
		AccessLatency:       sim.NsToCycles(cfg.MemLatencyNs),
		Channels:            cfg.MemChannels,
		ChannelBandwidthGBs: cfg.MemBandwidthGBs,
	})
	if cfg.InfiniteMemBW {
		s.mem.SetInfiniteBandwidth()
	}
	if cfg.Design.HasDRAMCache() {
		dcCfg := dramcache.Config{
			Name:                fmt.Sprintf("dram$.%d", id),
			SizeBytes:           cfg.ScaledDRAMCacheSize(),
			AccessLatency:       sim.NsToCycles(cfg.DRAMCacheLatencyNs),
			Channels:            cfg.DRAMCacheChannels,
			ChannelBandwidthGBs: cfg.DRAMCacheBandwidthGBs,
			PredictorEntries:    cfg.PredictorEntries,
			Policy:              cfg.dramCachePolicy(),
		}
		if cfg.InfiniteDRAMCacheB {
			dcCfg.ChannelBandwidthGBs = 0
		}
		s.dramCache = dramcache.New(dcCfg)
	}
	if spec.Directory != noDirectory {
		dc := coherence.DirConfig{Name: fmt.Sprintf("gdir.%d", id)}
		if spec.Directory == sparseDirectory {
			dc.Entries, dc.Ways = cfg.DirEntries(), cfg.DirWays
		}
		s.dir = coherence.NewDirectory(dc)
	}
	return s
}

// dirUpdate stores the entry a directory transition chose in the socket's
// slice, unless the transition keeps the old one, and returns the recall
// the store forces.
func (s *Socket) dirUpdate(b addr.Block, next coherence.Entry, act core.Action) coherence.Recall {
	if act.Keep {
		return coherence.Recall{}
	}
	return s.dir.Update(b, next)
}

// LLC returns the socket's last-level cache.
//
//c3dlint:allow unused(the LLC the machine tests check residency and geometry in)
func (s *Socket) LLC() *cache.Cache { return s.llc }

// DRAMCache returns the socket's DRAM cache (nil for the baseline design).
//
//c3dlint:allow unused(the DRAM cache the machine tests check victim fills and invalidations in)
func (s *Socket) DRAMCache() *dramcache.Cache { return s.dramCache }

// l1Of returns the L1 of the given global core id (which must belong to this
// socket).
func (s *Socket) l1Of(coreID int) *cache.Cache {
	local := coreID - s.id*s.cfg.CoresPerSocket
	if local < 0 || local >= len(s.l1s) {
		panic(fmt.Sprintf("machine: core %d does not belong to socket %d", coreID, s.id))
	}
	return s.l1s[local]
}

// probeOnChip checks whether the block is present in the socket's on-chip
// hierarchy (LLC or any L1) without disturbing replacement state. It returns
// the "strongest" state found and whether any copy is dirty.
func (s *Socket) probeOnChip(b addr.Block) (state cache.State, dirty, present bool) {
	if line, ok := s.llc.Probe(b); ok {
		state, dirty, present = line.State, line.Dirty, true
	}
	for _, l1 := range s.l1s {
		if line, ok := l1.Probe(b); ok {
			present = true
			if line.State > state {
				state = line.State
			}
		}
	}
	return state, dirty, present
}

// invalidateOnChip removes the block from the LLC and every L1 of the socket.
// It returns the former LLC metadata (the L1s are write-through to the LLC,
// so the LLC's dirty bit is authoritative).
func (s *Socket) invalidateOnChip(b addr.Block) cache.Victim {
	for _, l1 := range s.l1s {
		l1.Invalidate(b)
	}
	return s.llc.Invalidate(b)
}

// invalidateL1sExcept removes the block from every L1 on the socket except
// the writer's, which is about to install the block in Modified state.
func (s *Socket) invalidateL1sExcept(coreID int, b addr.Block) {
	for i, l1 := range s.l1s {
		if s.id*s.cfg.CoresPerSocket+i == coreID {
			continue
		}
		l1.Invalidate(b)
	}
}

// downgradeOnChip transitions the block to Shared in the LLC and every L1
// holding it, clearing dirty bits (the caller is responsible for writing the
// data back to memory). It reports whether the block was present on-chip.
func (s *Socket) downgradeOnChip(b addr.Block) bool {
	present := false
	if s.llc.SetState(b, coherence.LineShared) {
		s.llc.CleanBlock(b)
		present = true
	}
	for _, l1 := range s.l1s {
		if l1.SetState(b, coherence.LineShared) {
			l1.CleanBlock(b)
			present = true
		}
	}
	return present
}

// resetStats clears the socket's counters (DRAM cache) and its channel
// occupancy without evicting contents. Used at the warm-up boundary.
func (s *Socket) resetStats() {
	s.mem.ResetStats()
	if s.dramCache != nil {
		s.dramCache.ResetStats()
	}
}
