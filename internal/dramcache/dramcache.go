// Package dramcache models a die-stacked (or on-package) DRAM cache: a
// direct-mapped, block-based giga-cache with in-DRAM tags, a region-based
// miss predictor, and bandwidth-regulated channels. Parameters default to
// Table II of the C3D paper: 1 GB per socket, direct-mapped, 40 ns access
// latency, eight 12.8 GB/s channels, and a 4K-entry miss predictor.
//
// The cache can operate in two write policies:
//
//   - Clean (write-through): the policy C3D relies on. The DRAM cache never
//     holds the only up-to-date copy of a block; dirty LLC evictions are
//     written through to memory while a clean copy is retained locally.
//   - Dirty (write-back): the policy assumed by the naive snoopy and
//     full-directory designs of §III, where the DRAM cache absorbs dirty LLC
//     evictions and writes them back to memory only on eviction.
//
// Every table is built on use: the tag array allocates its chunks of sets on
// first fill (see internal/cache) and the miss predictor its chunks of
// entries on first write. A fresh cache holds only the two chunk tables, and
// what a run adds follows the sets and regions it touches.
//
// The package provides tag-array bookkeeping and per-access timing; which
// messages cross sockets as a consequence of hits, misses and evictions is
// the protocol engines' business (internal/machine, internal/core).
package dramcache

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

// Policy selects the write policy of the DRAM cache.
type Policy int

const (
	// Clean is the write-through policy used by C3D: blocks in the DRAM
	// cache are never dirty.
	Clean Policy = iota
	// Dirty is the conventional write-back policy used by the naive designs.
	Dirty
)

func (p Policy) String() string {
	switch p {
	case Clean:
		return "clean"
	case Dirty:
		return "dirty"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes one socket's DRAM cache.
type Config struct {
	// Name identifies the cache in diagnostics, e.g. "dram$0".
	Name string
	// SizeBytes is the data capacity (1 GB per socket in Table II).
	SizeBytes uint64
	// AccessLatency is the latency of one DRAM cache access (tags are stored
	// in DRAM alongside data, so hit and miss detection cost the same).
	// Table II models 40 ns, i.e. 20% faster than the 50 ns main memory.
	AccessLatency sim.Cycles
	// Channels is the number of independent DRAM cache channels.
	Channels int
	// ChannelBandwidthGBs is the per-channel bandwidth; zero or negative
	// means infinite.
	ChannelBandwidthGBs float64
	// PredictorEntries is the size of the region-based miss predictor
	// (0 disables prediction; Table II uses 4096).
	PredictorEntries int
	// Policy selects clean (write-through) or dirty (write-back) operation.
	Policy Policy
}

// Stats aggregates DRAM cache activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadHits    uint64
	WriteHits   uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invalidates uint64
	Predictor   PredictorStats
}

// Accesses returns reads+writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// HitRate returns the overall hit rate, or 0 when never accessed.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(a)
}

// AccessResult describes the outcome and timing of one DRAM cache access.
type AccessResult struct {
	// Hit reports whether the block was present with a usable state.
	Hit bool
	// Dirty reports whether the block was dirty at the time of the access
	// (always false for a Clean-policy cache).
	Dirty bool
	// State is the coherence state of the line when hit.
	State cache.State
	// PredictedHit is what the miss predictor said before the tag check.
	PredictedHit bool
	// Done is when the DRAM cache access completes:
	//   hit                        -> tag+data access latency (+ queueing)
	//   miss, predicted miss       -> now (the next level can start at once;
	//                                 the tag verification is off the path)
	//   miss, predicted hit        -> tag access latency (+ queueing), because
	//                                 the miss is only discovered afterwards
	Done sim.Time
}

// Cache is one socket's DRAM cache instance. Nothing sits in front of the
// tag array: the Warm* fast-forward paths probe it directly, and a block
// whose tag chunk was never filled costs them a nil check.
type Cache struct {
	cfg       Config
	tags      *cache.Cache
	predictor *MissPredictor
	channels  []*sim.Resource
	stats     Stats
}

// New builds a DRAM cache from cfg. It panics on invalid geometry.
func New(cfg Config) *Cache {
	if cfg.Channels <= 0 {
		panic(fmt.Sprintf("dramcache %s: need at least one channel", cfg.Name))
	}
	c := &Cache{
		cfg: cfg,
		tags: cache.New(cache.Config{
			Name:      cfg.Name,
			SizeBytes: cfg.SizeBytes,
			Ways:      1,
		}),
	}
	if cfg.PredictorEntries > 0 {
		c.predictor = NewMissPredictor(cfg.PredictorEntries)
	}
	for i := 0; i < cfg.Channels; i++ {
		c.channels = append(c.channels, sim.NewResource(
			fmt.Sprintf("%s.ch%d", cfg.Name, i),
			sim.GBsToBytesPerCycle(cfg.ChannelBandwidthGBs)))
	}
	return c
}

// Stats returns a snapshot of the counters (including the predictor's).
func (c *Cache) Stats() Stats {
	s := c.stats
	if c.predictor != nil {
		s.Predictor = c.predictor.Stats()
	}
	return s
}

// ResetStats clears counters and channel occupancy without evicting contents
// (used at the warm-up boundary).
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	if c.predictor != nil {
		c.predictor.ResetStats()
	}
	for _, ch := range c.channels {
		ch.Reset()
	}
}

func (c *Cache) channelOf(b addr.Block) *sim.Resource {
	return c.channels[int(uint64(b)%uint64(len(c.channels)))]
}

// occupy reserves channel bandwidth for a block-sized transfer at now and
// returns the completion time of the transfer.
func (c *Cache) occupy(now sim.Time, b addr.Block) sim.Time {
	_, done := c.channelOf(b).Acquire(now, addr.BlockBytes)
	return done
}

// Access performs a read (isWrite=false) or write (isWrite=true) lookup at
// time now and returns the outcome with timing. A write hit updates the line
// and, under the Dirty policy, marks it dirty; under the Clean policy the
// line stays clean (the protocol engine is responsible for writing through to
// memory).
func (c *Cache) Access(now sim.Time, b addr.Block, isWrite bool) AccessResult {
	if isWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	predictedHit := true
	if c.predictor != nil {
		predictedHit = c.predictor.Predict(b)
	}
	line, hit := c.tags.Lookup(b)
	if c.predictor != nil {
		c.predictor.Resolve(predictedHit, hit)
	}
	res := AccessResult{Hit: hit, PredictedHit: predictedHit}
	if hit {
		res.State = line.State
		res.Dirty = line.Dirty
		if isWrite {
			c.stats.WriteHits++
			if c.cfg.Policy == Dirty {
				line.Dirty = true
				line.State = coherence.LineModified
			}
		} else {
			c.stats.ReadHits++
		}
		res.Done = c.occupy(now, b).Add(c.cfg.AccessLatency)
		return res
	}
	// Miss.
	if predictedHit {
		// The miss is discovered only after the in-DRAM tag check.
		res.Done = c.occupy(now, b).Add(c.cfg.AccessLatency)
	} else {
		// Correctly predicted miss: the next level starts immediately; the
		// background tag verification does not occupy the critical path.
		res.Done = now
	}
	return res
}

// Probe checks for block b without touching LRU, statistics or the predictor.
// It is used by snoops and invalidation filters. The returned time is when
// the probe completes (one DRAM cache access; snoops cannot use the miss
// predictor because they must be authoritative).
func (c *Cache) Probe(now sim.Time, b addr.Block) (line cache.Line, present bool, done sim.Time) {
	l, ok := c.tags.Probe(b)
	done = c.occupy(now, b).Add(c.cfg.AccessLatency)
	if ok {
		return *l, true, done
	}
	return cache.Line{}, false, done
}

// Contains reports whether block b is resident (no timing, no stats).
//
//c3dlint:allow unused(residency the machine tests check victim-cache fills and invalidations with)
func (c *Cache) Contains(b addr.Block) bool { return c.tags.Contains(b) }

// FillResult describes the consequence of inserting a block.
type FillResult struct {
	// Victim is the evicted line, if any.
	Victim cache.Victim
	// Done is when the fill write completes (off the critical path; exposed
	// so bandwidth accounting includes fills).
	Done sim.Time
}

// Fill inserts block b at time now with the given coherence state. Under the
// Clean policy the dirty flag is forced to false regardless of the argument —
// that is the invariant the C3D protocol depends on. The evicted victim (if
// any) is reported so the protocol engine can issue a write-back for dirty
// victims of a Dirty-policy cache.
func (c *Cache) Fill(now sim.Time, b addr.Block, st cache.State, dirty bool) FillResult {
	if c.cfg.Policy == Clean {
		dirty = false
		if st == coherence.LineModified {
			// A clean DRAM cache holds at most a Shared (possibly stale with
			// respect to an on-chip Modified copy) version of the block.
			st = coherence.LineShared
		}
	}
	c.stats.Fills++
	victim := c.tags.Fill(b, st, dirty)
	if victim.Valid {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
		}
		if c.predictor != nil {
			c.predictor.BlockEvicted(victim.Block)
		}
	}
	if c.predictor != nil {
		c.predictor.BlockFilled(b)
	}
	return FillResult{Victim: victim, Done: c.occupy(now, b)}
}

// Warm is the functional-warming fill used by sampled simulation: the tag
// array is updated with a single statistics-free scan and the miss predictor
// is primed exactly as a detailed fill would prime it, but no counter
// advances and no channel bandwidth is occupied. The policy invariants of
// Fill apply unchanged (a Clean cache stores at most a clean Shared copy).
func (c *Cache) Warm(b addr.Block, st cache.State, dirty bool) {
	if c.cfg.Policy == Clean {
		dirty = false
		if st == coherence.LineModified {
			st = coherence.LineShared
		}
	}
	var victim cache.Victim
	var hit bool
	if dirty {
		victim, hit = c.tags.TouchDirty(b, st)
	} else {
		victim, hit = c.tags.Touch(b, st)
	}
	if hit || c.predictor == nil {
		return
	}
	if victim.Valid {
		c.predictor.BlockEvicted(victim.Block)
	}
	c.predictor.BlockFilled(b)
}

// WarmWrite records a functionally-warmed store to a resident block: under
// the Dirty policy the line becomes Modified and dirty — the end state a
// detailed write hit leaves behind — while under the Clean policy stores
// never dirty the cache, so the call is a no-op. No statistics advance.
func (c *Cache) WarmWrite(b addr.Block) {
	if c.cfg.Policy != Dirty {
		return
	}
	if l, ok := c.tags.Probe(b); ok {
		l.State = coherence.LineModified
		l.Dirty = true
	}
}

// WarmInvalidate drops block b during functional warming: the predictor
// decays exactly as on a detailed invalidation, but the cache-level
// invalidation counter — which reaches measured results — does not advance.
func (c *Cache) WarmInvalidate(b addr.Block) {
	if c.tags.Invalidate(b).Valid && c.predictor != nil {
		c.predictor.BlockEvicted(b)
	}
}

// Invalidate removes block b if present and returns the removed line
// metadata. The predictor is informed so future accesses to the region
// predict correctly.
func (c *Cache) Invalidate(b addr.Block) cache.Victim {
	v := c.tags.Invalidate(b)
	if v.Valid {
		c.stats.Invalidates++
		if c.predictor != nil {
			c.predictor.BlockEvicted(b)
		}
	}
	return v
}

// CleanBlock clears the dirty bit of a resident block (used when a dirty
// DRAM cache writes a block back but retains it).
func (c *Cache) CleanBlock(b addr.Block) bool { return c.tags.CleanBlock(b) }

// ValidLines returns the number of resident blocks.
//
//c3dlint:allow unused(occupancy the DRAM cache tests check capacity bounds with)
func (c *Cache) ValidLines() int { return c.tags.ValidLines() }

// ForEach calls fn for every resident line.
//
//c3dlint:allow unused(resident lines TestWarmedStateMatchesGolden digests)
func (c *Cache) ForEach(fn func(cache.Line)) { c.tags.ForEach(fn) }

// HasDirtyBlocks reports whether any resident line is dirty. For a
// Clean-policy cache this must always be false; the machine's invariant
// checks call it after every run. It scans only the tag chunks a run has
// filled, so its cost follows the sets the run touched, not the capacity.
func (c *Cache) HasDirtyBlocks() bool {
	dirty := false
	c.tags.ForEach(func(l cache.Line) {
		if l.Dirty {
			dirty = true
		}
	})
	return dirty
}
