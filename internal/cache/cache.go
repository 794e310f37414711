// Package cache implements the set-associative cache model shared by every
// level of the simulated hierarchy: the per-core L1s, the per-socket LLC, and
// the tag array of the DRAM cache (which is simply a direct-mapped instance).
//
// The cache stores tags and per-line metadata only — the simulator is
// trace-driven and never materialises data values. Each line carries a small
// coherence state byte (interpreted by the owning protocol engine) and a
// dirty bit. Replacement is true LRU within a set.
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"c3d/internal/addr"
)

// State is the per-line coherence state. The cache itself does not interpret
// it beyond "zero means invalid"; protocol engines define their own meaning
// for the non-zero values (see internal/coherence).
type State uint8

// StateInvalid is the only state the cache package interprets: a line whose
// state is StateInvalid is not present.
const StateInvalid State = 0

// Config describes a cache structure.
type Config struct {
	// Name is used in diagnostics and stats output (e.g. "L1", "LLC",
	// "dramcache").
	Name string
	// SizeBytes is the total data capacity. Must be a multiple of
	// Ways*addr.BlockBytes.
	SizeBytes uint64
	// Ways is the associativity; 1 means direct-mapped.
	Ways int
}

// Line is the metadata stored for one cached block. The layout is kept at 16
// bytes (four lines per hardware cache line) because set scans dominate the
// simulator's profile: a narrower line means fewer host cache misses per
// simulated access.
type Line struct {
	Block addr.Block
	// lastUse is the LRU timestamp (an access counter private to the cache).
	// It is 32-bit on purpose; the cache renormalises every timestamp in
	// place before the counter can wrap, so LRU ordering is exact at any
	// access count.
	lastUse uint32
	State   State
	Dirty   bool
	valid   bool
}

// Victim describes a line evicted to make room for a fill.
type Victim struct {
	Block addr.Block
	State State
	Dirty bool
	// Valid reports whether anything was actually evicted (false when the
	// fill found an invalid way).
	Valid bool
}

// Stats holds the access counters of one cache instance.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	DirtyEvict uint64
	Invalidate uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns hits/(hits+misses), or 0 when the cache was never accessed.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits) / float64(a)
}

// Cache is a set-associative tag/metadata array with LRU replacement.
type Cache struct {
	cfg     Config
	sets    int
	ways    int
	lines   []Line // sets*ways entries, row-major by set
	tick    uint32
	stats   Stats
	setMask uint64
}

// bump advances the LRU clock and returns the new timestamp. When the 32-bit
// clock is about to wrap it first renormalises every line's timestamp to its
// LRU rank within its set — an order-preserving compression, so replacement
// decisions are unaffected — and rewinds the clock past the ranks.
func (c *Cache) bump() uint32 {
	if c.tick == ^uint32(0) {
		c.renormalize()
	}
	c.tick++
	return c.tick
}

// renormalize rewrites each line's lastUse as its LRU rank within its set
// (0 = least recent). Ordering within a set is all the replacement policy
// reads, so this is invisible to every caller.
func (c *Cache) renormalize() {
	ranks := make([]uint32, c.ways)
	for s := 0; s < c.sets; s++ {
		set := c.lines[s*c.ways : (s+1)*c.ways]
		for i := range set {
			r := uint32(0)
			for j := range set {
				// Ties (only possible between never-used invalid ways) keep
				// their index order, matching the scan tie-break.
				if set[j].lastUse < set[i].lastUse ||
					(set[j].lastUse == set[i].lastUse && j < i) {
					r++
				}
			}
			ranks[i] = r
		}
		for i := range set {
			set[i].lastUse = ranks[i]
		}
	}
	c.tick = uint32(c.ways)
}

// New builds a cache from cfg. It panics on invalid geometry, because a
// malformed configuration invalidates every result derived from it.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", cfg.Name, cfg.Ways))
	}
	lineCapacity := cfg.SizeBytes / addr.BlockBytes
	if lineCapacity == 0 || cfg.SizeBytes%addr.BlockBytes != 0 {
		panic(fmt.Sprintf("cache %s: size %d is not a positive multiple of the block size", cfg.Name, cfg.SizeBytes))
	}
	if lineCapacity%uint64(cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, lineCapacity, cfg.Ways))
	}
	sets := int(lineCapacity / uint64(cfg.Ways))
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: number of sets %d must be a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		lines:   make([]Line, sets*cfg.Ways),
		setMask: uint64(sets - 1),
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the data capacity in bytes.
func (c *Cache) Capacity() uint64 { return c.cfg.SizeBytes }

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters without touching cache contents (used at the
// warm-up/measurement boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to its just-constructed state: every line invalid,
// LRU clock rewound, counters cleared. It lets a machine be reused across
// runs without reallocating the tag arrays.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.stats = Stats{}
}

func (c *Cache) setOf(b addr.Block) int { return int(uint64(b) & c.setMask) }

func (c *Cache) set(b addr.Block) []Line {
	s := c.setOf(b)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup probes the cache for block b. On a hit it refreshes the line's LRU
// position and returns a pointer to the line (which the caller may mutate,
// e.g. to change its coherence state) and true. On a miss it returns nil and
// false. Hit/miss statistics are updated.
func (c *Cache) Lookup(b addr.Block) (*Line, bool) {
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			set[i].lastUse = c.bump()
			c.stats.Hits++
			return &set[i], true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Probe is like Lookup but does not update LRU state or statistics. It is
// used by coherence engines for snoops and invalidation checks that should
// not perturb replacement behaviour.
func (c *Cache) Probe(b addr.Block) (*Line, bool) {
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			return &set[i], true
		}
	}
	return nil, false
}

// Contains reports whether block b is present (without touching LRU/stats).
func (c *Cache) Contains(b addr.Block) bool {
	_, ok := c.Probe(b)
	return ok
}

// Touch is the functional-warming accessor: one set scan that behaves like
// Lookup-then-Fill without the second scan and without any statistics
// updates. On a hit it refreshes the line's LRU position — state and dirty
// bit are left untouched — and reports hit=true. On a miss it installs the
// block clean in the given state and returns the evicted victim, if any.
// Neither hits, misses nor fills are counted: Touch exists for fast-forward
// warming, whose traffic must stay invisible to every measured statistic.
func (c *Cache) Touch(b addr.Block, st State) (Victim, bool) {
	set := c.set(b)
	invalidIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].valid {
			if set[i].Block == b {
				set[i].lastUse = c.bump()
				return Victim{}, true
			}
			if set[i].lastUse < set[lruIdx].lastUse {
				lruIdx = i
			}
		} else if invalidIdx < 0 {
			invalidIdx = i
		}
	}
	var victim Victim
	victimIdx := invalidIdx
	if victimIdx < 0 {
		victimIdx = lruIdx
		v := set[victimIdx]
		victim = Victim{Block: v.Block, State: v.State, Dirty: v.Dirty, Valid: true}
	}
	set[victimIdx] = Line{Block: b, State: st, valid: true, lastUse: c.bump()}
	return victim, false
}

// TouchDirty is Touch's store flavour: one statistics-free scan that on a hit
// upgrades the line to st, sets its dirty bit and refreshes its LRU position,
// and on a miss installs the block dirty in st, returning the victim.
func (c *Cache) TouchDirty(b addr.Block, st State) (Victim, bool) {
	set := c.set(b)
	invalidIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].valid {
			if set[i].Block == b {
				set[i].State = st
				set[i].Dirty = true
				set[i].lastUse = c.bump()
				return Victim{}, true
			}
			if set[i].lastUse < set[lruIdx].lastUse {
				lruIdx = i
			}
		} else if invalidIdx < 0 {
			invalidIdx = i
		}
	}
	var victim Victim
	victimIdx := invalidIdx
	if victimIdx < 0 {
		victimIdx = lruIdx
		v := set[victimIdx]
		victim = Victim{Block: v.Block, State: v.State, Dirty: v.Dirty, Valid: true}
	}
	set[victimIdx] = Line{Block: b, State: st, Dirty: true, valid: true, lastUse: c.bump()}
	return victim, false
}

// TouchState is the state-upgrading flavour of Touch: one statistics-free
// scan that on a hit sets the line's state to st (leaving the dirty bit
// alone), refreshes its LRU position and returns the state the line held
// before the upgrade; on a miss it installs the block clean in st, silently
// dropping the LRU victim. It exists for functional warming of stores, where
// the caller needs to know whether the line was already held (and in what
// state) without paying a separate Lookup-then-Fill pair of scans.
func (c *Cache) TouchState(b addr.Block, st State) (State, bool) {
	set := c.set(b)
	invalidIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].valid {
			if set[i].Block == b {
				prior := set[i].State
				set[i].State = st
				set[i].lastUse = c.bump()
				return prior, true
			}
			if set[i].lastUse < set[lruIdx].lastUse {
				lruIdx = i
			}
		} else if invalidIdx < 0 {
			invalidIdx = i
		}
	}
	victimIdx := invalidIdx
	if victimIdx < 0 {
		victimIdx = lruIdx
	}
	set[victimIdx] = Line{Block: b, State: st, valid: true, lastUse: c.bump()}
	return StateInvalid, false
}

// Fill inserts block b with the given state and dirty flag, evicting the LRU
// line of the set if necessary. The evicted line (if any) is returned so the
// caller can propagate write-backs or victim-cache fills. Filling a block
// that is already present updates its state in place and returns an invalid
// victim.
//
// Fill scans the set once, as the Touch accessors do, and still picks the way
// separate hit, free-way and LRU scans would: a present block is updated
// before anything else is written; otherwise the block takes the
// lowest-index invalid way or, only when every way is valid, the first way
// with the strictly smallest timestamp.
func (c *Cache) Fill(b addr.Block, st State, dirty bool) Victim {
	if st == StateInvalid {
		panic(fmt.Sprintf("cache %s: Fill with invalid state", c.cfg.Name))
	}
	c.stats.Fills++
	set := c.set(b)
	invalidIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].valid {
			if set[i].Block == b {
				// Already present: update in place.
				set[i].State = st
				set[i].Dirty = set[i].Dirty || dirty
				set[i].lastUse = c.bump()
				return Victim{}
			}
			if set[i].lastUse < set[lruIdx].lastUse {
				lruIdx = i
			}
		} else if invalidIdx < 0 {
			invalidIdx = i
		}
	}
	var victim Victim
	victimIdx := invalidIdx
	if victimIdx < 0 {
		// Evict LRU.
		victimIdx = lruIdx
		v := set[victimIdx]
		victim = Victim{Block: v.Block, State: v.State, Dirty: v.Dirty, Valid: true}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvict++
		}
	}
	set[victimIdx] = Line{Block: b, State: st, Dirty: dirty, valid: true, lastUse: c.bump()}
	return victim
}

// Invalidate removes block b if present and returns its former metadata. The
// returned Victim.Valid reports whether the block was present.
func (c *Cache) Invalidate(b addr.Block) Victim {
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			v := set[i]
			set[i] = Line{}
			c.stats.Invalidate++
			return Victim{Block: v.Block, State: v.State, Dirty: v.Dirty, Valid: true}
		}
	}
	return Victim{}
}

// SetState changes the coherence state of block b if present, and reports
// whether the block was found. Setting StateInvalid removes the block.
func (c *Cache) SetState(b addr.Block, st State) bool {
	if st == StateInvalid {
		return c.Invalidate(b).Valid
	}
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			set[i].State = st
			return true
		}
	}
	return false
}

// CleanBlock clears the dirty bit of block b if present and reports whether
// the block was found. It is used by the clean (write-through) DRAM cache
// policy and when an LLC write-back leaves a clean copy behind.
func (c *Cache) CleanBlock(b addr.Block) bool {
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			set[i].Dirty = false
			return true
		}
	}
	return false
}

// ValidLines returns the number of currently valid lines. Intended for tests
// and occupancy reporting, not for per-access hot paths.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid line. Intended for diagnostics and the
// model checker's small configurations; not used on hot paths.
func (c *Cache) ForEach(fn func(Line)) {
	for i := range c.lines {
		if c.lines[i].valid {
			fn(c.lines[i])
		}
	}
}

// LRUOrder returns the valid lines of set s from least to most recently
// used. Intended for tests that compare replacement state across runs; the
// order, not the raw timestamps, is what replacement reads.
func (c *Cache) LRUOrder(s int) []Line {
	set := slices.Clone(c.lines[s*c.ways : (s+1)*c.ways])
	set = slices.DeleteFunc(set, func(l Line) bool { return !l.valid })
	slices.SortStableFunc(set, func(a, b Line) int { return cmp.Compare(a.lastUse, b.lastUse) })
	return set
}

// Flush removes every line and returns the number of lines that were dirty.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].Dirty {
			dirty++
		}
		c.lines[i] = Line{}
	}
	return dirty
}
