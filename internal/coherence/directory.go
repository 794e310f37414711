package coherence

import (
	"fmt"

	"c3d/internal/addr"
)

// Entry is one global-directory entry: the stable state of a block plus the
// socket-grain sharing vector. Owner is only meaningful in DirModified and
// names the single socket with write permission.
type Entry struct {
	State   DirState
	Sharers SharerSet
	Owner   int
}

// DirConfig describes one socket's slice of the global directory.
type DirConfig struct {
	// Name identifies the slice in diagnostics, e.g. "gdir0".
	Name string
	// Entries is the capacity of the slice. Zero means unlimited (the
	// idealised full directory of §III-B / the c3d-full-dir design, which the
	// paper models with "no recalls").
	Entries int
	// Ways is the associativity of a bounded directory. Ignored when
	// Entries is zero. Table II models a sparse 2x, 32-way directory.
	Ways int
}

// Directory is one socket's slice of the global directory: a mapping from
// block to Entry. With Entries == 0 it behaves as an unbounded full map
// (no recalls); otherwise it is a sparse set-associative structure whose
// evictions the caller must turn into recall invalidations.
//
// A sparse directory's sets grow on use: each is nil until Update first
// allocates in it, and gains one way at a time, up to the associativity,
// when an allocation finds no free way. The new way is the lowest-index free
// way of a full-size set, so the layout matches a set allocated whole. The
// read paths and Remove see a nil set as empty and allocate nothing.
type Directory struct {
	// Unbounded storage.
	unbounded map[addr.Block]Entry

	// Bounded (sparse) storage.
	ways    int
	setMask uint64
	sets    [][]dirLine
	tick    uint64
	// found is the way of its set where Lookup last found a block. A
	// protocol engine looks a block up, decides, then stores its next entry
	// with Update or Remove; they try this way first and skip their scan
	// when it still holds the block.
	found int

	// stale, when set, reports whether a tracked block is no longer cached
	// anywhere, letting the replacement policy victimise stale entries
	// before live ones (see SetStalePredicate).
	stale func(addr.Block) bool
}

type dirLine struct {
	block   addr.Block
	entry   Entry
	valid   bool
	lastUse uint64
}

// Recall describes an entry evicted from a sparse directory. The protocol
// engine must invalidate the copies it tracks before reusing the slot.
type Recall struct {
	Block addr.Block
	Entry Entry
	Valid bool
}

// NewDirectory builds a directory slice from cfg. It panics on invalid
// bounded geometry.
func NewDirectory(cfg DirConfig) *Directory {
	d := &Directory{}
	if cfg.Entries <= 0 {
		d.unbounded = make(map[addr.Block]Entry)
		return d
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("coherence: directory %s: ways must be positive", cfg.Name))
	}
	if cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("coherence: directory %s: %d entries not divisible by %d ways", cfg.Name, cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("coherence: directory %s: number of sets %d must be a power of two", cfg.Name, sets))
	}
	d.ways = cfg.Ways
	d.setMask = uint64(sets - 1)
	d.sets = make([][]dirLine, sets)
	return d
}

// SetStalePredicate installs a callback that reports whether a tracked block
// has already left every cache covered by this directory. Caches evict clean
// blocks silently, so a sparse directory accumulates entries for blocks that
// are long gone; without help its LRU victim is frequently a *live* entry
// whose recall needlessly invalidates cached data. Real designs mitigate this
// with eviction hints or by probing before recalling — the predicate models
// that ability. A nil predicate (the default) falls back to pure LRU.
// The predicate must be pure, touching no LRU state: Update
// asks it about only some ways of a full set, oldest first.
func (d *Directory) SetStalePredicate(fn func(addr.Block) bool) { d.stale = fn }

// Lookup returns the entry for block b and whether one exists. A missing
// entry means DirInvalid.
func (d *Directory) Lookup(b addr.Block) (Entry, bool) {
	if d.unbounded != nil {
		e, ok := d.unbounded[b]
		return e, ok
	}
	set := d.sets[d.index(b)]
	for i := range set {
		if set[i].valid && set[i].block == b {
			d.tick++
			set[i].lastUse = d.tick
			d.found = i
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

// Probe is like Lookup but does not update LRU order.
//
//c3dlint:allow unused(the entry the directory tests read without disturbing replacement order)
func (d *Directory) Probe(b addr.Block) (Entry, bool) {
	if d.unbounded != nil {
		e, ok := d.unbounded[b]
		return e, ok
	}
	set := d.sets[d.index(b)]
	for i := range set {
		if set[i].valid && set[i].block == b {
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

// Update stores entry for block b, allocating a slot if necessary. If the
// block is absent and the directory is sparse and the set is full, the LRU
// entry is evicted and returned as a recall that the caller must act on,
// unless the stale predicate names an entry that can go without one.
// Storing an entry in DirInvalid state removes the block instead.
//
// Update scans the set once and picks the way separate present, free-way and
// LRU scans would: a present block is updated in place; otherwise the block
// takes the lowest-index invalid way, growing the set by one way when it has
// none and is not yet at full associativity. Only a full set asks the stale
// predicate, from the oldest way to the newest, and the first stale way wins.
// That is the oldest stale way an all-ways scan would pick: every way of a
// full set holds a distinct tick, and the predicate is pure, so the answers
// not asked for cannot change anything.
func (d *Directory) Update(b addr.Block, e Entry) Recall {
	if e.State == DirInvalid {
		d.Remove(b)
		return Recall{}
	}
	if d.unbounded != nil {
		d.unbounded[b] = e
		return Recall{}
	}
	s := d.index(b)
	set := d.sets[s]
	if i := d.found; i < len(set) && set[i].valid && set[i].block == b {
		d.tick++
		set[i].entry = e
		set[i].lastUse = d.tick
		return Recall{}
	}
	free, lru := -1, 0
	for i := range set {
		if !set[i].valid {
			if free < 0 {
				free = i
			}
		} else if set[i].block == b {
			d.tick++
			set[i].entry = e
			set[i].lastUse = d.tick
			return Recall{}
		} else if set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	victim := free
	if victim < 0 && len(set) < d.ways {
		victim = len(set)
		set = append(set, dirLine{})
		d.sets[s] = set
	}
	if victim < 0 && d.stale != nil {
		// Full set: ask about the ways oldest first, stopping at the first
		// stale one. The oldest is usually stale, so one answer is typical.
		for i := lru; i >= 0; {
			if d.stale(set[i].block) {
				victim = i
				break
			}
			prev := set[i].lastUse
			i = -1
			for j := range set {
				if set[j].lastUse > prev && (i < 0 || set[j].lastUse < set[i].lastUse) {
					i = j
				}
			}
		}
	}
	var recall Recall
	if victim < 0 {
		victim = lru
		recall = Recall{Block: set[victim].block, Entry: set[victim].entry, Valid: true}
	}
	d.tick++
	set[victim] = dirLine{block: b, entry: e, valid: true, lastUse: d.tick}
	return recall
}

// Remove deletes the entry for block b if present and reports whether it was
// present.
func (d *Directory) Remove(b addr.Block) bool {
	if d.unbounded != nil {
		if _, ok := d.unbounded[b]; ok {
			delete(d.unbounded, b)
			return true
		}
		return false
	}
	set := d.sets[d.index(b)]
	if i := d.found; i < len(set) && set[i].valid && set[i].block == b {
		set[i] = dirLine{}
		return true
	}
	for i := range set {
		if set[i].valid && set[i].block == b {
			set[i] = dirLine{}
			return true
		}
	}
	return false
}

// Entries returns the number of valid entries currently stored.
//
//c3dlint:allow unused(occupancy the directory tests check capacity and allocation with)
func (d *Directory) Entries() int {
	if d.unbounded != nil {
		return len(d.unbounded)
	}
	n := 0
	for _, set := range d.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// index returns the set block b maps to.
func (d *Directory) index(b addr.Block) int {
	// XOR-fold the block number before masking. A home-sliced directory only
	// ever sees blocks whose page-interleave bits match its socket, so using
	// the raw low bits would leave most sets unused; folding higher bits in
	// spreads the tracked blocks across every set.
	h := uint64(b)
	h ^= h >> 8
	h ^= h >> 16
	return int(h & d.setMask)
}
