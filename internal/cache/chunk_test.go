package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
)

// refLine is one way of refCache. Its timestamp is 64-bit, so the reference
// never renormalises.
type refLine struct {
	block        addr.Block
	state        State
	dirty, valid bool
	used         uint64
}

// refCache is the flat reference the chunked Cache is checked against: one
// []refLine of sets*ways entries, row-major by set, with every replacement
// rule spelled out plainly.
type refCache struct {
	ways  int
	lines []refLine
	clock uint64
}

func newRef(sets, ways int) *refCache {
	return &refCache{ways: ways, lines: make([]refLine, sets*ways)}
}

func (r *refCache) set(b addr.Block) []refLine {
	s := int(uint64(b) % uint64(len(r.lines)/r.ways))
	return r.lines[s*r.ways : (s+1)*r.ways]
}

// way returns b's way and true when b is present. On a miss it returns the
// way a fill takes: the lowest-index invalid way, else the least recently
// used one.
func (r *refCache) way(b addr.Block) (*refLine, bool) {
	set := r.set(b)
	var free, lru *refLine
	for i := range set {
		l := &set[i]
		switch {
		case l.valid && l.block == b:
			return l, true
		case !l.valid:
			if free == nil {
				free = l
			}
		case lru == nil || l.used < lru.used:
			lru = l
		}
	}
	if free != nil {
		return free, false
	}
	return lru, false
}

func (r *refCache) present(b addr.Block) *refLine {
	if l, ok := r.way(b); ok {
		return l
	}
	return nil
}

func (r *refCache) bump(l *refLine) {
	r.clock++
	l.used = r.clock
}

// install puts b in way l and returns what l held.
func (r *refCache) install(l *refLine, b addr.Block, st State, dirty bool) Victim {
	var v Victim
	if l.valid {
		v = Victim{Block: l.block, State: l.state, Dirty: l.dirty, Valid: true}
	}
	*l = refLine{block: b, state: st, dirty: dirty, valid: true}
	r.bump(l)
	return v
}

func (r *refCache) invalidate(b addr.Block) Victim {
	l := r.present(b)
	if l == nil {
		return Victim{}
	}
	v := Victim{Block: l.block, State: l.state, Dirty: l.dirty, Valid: true}
	*l = refLine{}
	return v
}

// cacheDiff drives a chunked Cache and a refCache through the same
// operations and fails on the first difference.
type cacheDiff struct {
	t      *testing.T
	got    *Cache
	want   *refCache
	blocks int // the fuzzer draws blocks from [0, blocks): three per line
}

func newCacheDiff(t *testing.T, lines, ways int) *cacheDiff {
	cfg := Config{Name: "diff", SizeBytes: uint64(lines) * addr.BlockBytes, Ways: ways}
	got := New(cfg)
	return &cacheDiff{t: t, got: got, want: newRef(got.Sets(), ways), blocks: 3 * lines}
}

// step applies operation op%10 to block b, one of the ten per-block
// accessors; arg picks the state and dirty bit it passes.
func (d *cacheDiff) step(n int, op byte, b addr.Block, arg byte) {
	t, got, want := d.t, d.got, d.want
	st, dirty := State(1+arg%3), arg&4 != 0
	chunk := int(uint64(b)&got.setMask) >> got.chunkShift
	unfilled := got.chunks[chunk] == nil
	write := false
	switch op % 10 {
	case 0:
		gl, gh := got.Lookup(b)
		wl, wh := want.way(b)
		if wh {
			want.bump(wl)
		}
		if gh != wh || (gh && (gl.Block != wl.block || gl.State != wl.state || gl.Dirty != wl.dirty)) {
			t.Fatalf("op %d: Lookup(%d) = %v %+v, want %v %+v", n, b, gh, gl, wh, wl)
		}
	case 1:
		gl, gh := got.Probe(b)
		wl, wh := want.way(b)
		if gh != wh || (gh && (gl.Block != wl.block || gl.State != wl.state || gl.Dirty != wl.dirty)) {
			t.Fatalf("op %d: Probe(%d) = %v %+v, want %v %+v", n, b, gh, gl, wh, wl)
		}
	case 2:
		if g, w := got.Contains(b), want.present(b) != nil; g != w {
			t.Fatalf("op %d: Contains(%d) = %v, want %v", n, b, g, w)
		}
	case 3:
		write = true
		gv, gh := got.Touch(b, st)
		var wv Victim
		wl, wh := want.way(b)
		if wh {
			want.bump(wl)
		} else {
			wv = want.install(wl, b, st, false)
		}
		if gv != wv || gh != wh {
			t.Fatalf("op %d: Touch(%d, %d) = %+v %v, want %+v %v", n, b, st, gv, gh, wv, wh)
		}
	case 4:
		write = true
		gv, gh := got.TouchDirty(b, st)
		var wv Victim
		wl, wh := want.way(b)
		if wh {
			wl.state, wl.dirty = st, true
			want.bump(wl)
		} else {
			wv = want.install(wl, b, st, true)
		}
		if gv != wv || gh != wh {
			t.Fatalf("op %d: TouchDirty(%d, %d) = %+v %v, want %+v %v", n, b, st, gv, gh, wv, wh)
		}
	case 5:
		write = true
		gs, gh := got.TouchState(b, st)
		ws := StateInvalid
		wl, wh := want.way(b)
		if wh {
			ws, wl.state = wl.state, st
			want.bump(wl)
		} else {
			want.install(wl, b, st, false)
		}
		if gs != ws || gh != wh {
			t.Fatalf("op %d: TouchState(%d, %d) = %d %v, want %d %v", n, b, st, gs, gh, ws, wh)
		}
	case 6:
		write = true
		gv := got.Fill(b, st, dirty)
		var wv Victim
		if wl, wh := want.way(b); wh {
			wl.state, wl.dirty = st, wl.dirty || dirty
			want.bump(wl)
		} else {
			wv = want.install(wl, b, st, dirty)
		}
		if gv != wv {
			t.Fatalf("op %d: Fill(%d, %d, %v) = %+v, want %+v", n, b, st, dirty, gv, wv)
		}
	case 7:
		if g, w := got.Invalidate(b), want.invalidate(b); g != w {
			t.Fatalf("op %d: Invalidate(%d) = %+v, want %+v", n, b, g, w)
		}
	case 8:
		st := State(arg % 3) // StateInvalid included
		var w bool
		if st == StateInvalid {
			w = want.invalidate(b).Valid
		} else if wl := want.present(b); wl != nil {
			wl.state, w = st, true
		}
		if g := got.SetState(b, st); g != w {
			t.Fatalf("op %d: SetState(%d, %d) = %v, want %v", n, b, st, g, w)
		}
	default:
		wl := want.present(b)
		if wl != nil {
			wl.dirty = false
		}
		if g := got.CleanBlock(b); g != (wl != nil) {
			t.Fatalf("op %d: CleanBlock(%d) = %v, want %v", n, b, g, wl != nil)
		}
	}
	if filled := got.chunks[chunk] != nil; unfilled && filled != write {
		t.Fatalf("op %d (%d on block %d): unfilled chunk %d filled = %v, want %v", n, op%10, b, chunk, filled, write)
	}
}

// check compares every valid line, way by way, and each set's LRU order.
func (d *cacheDiff) check() {
	t, got, want := d.t, d.got, d.want
	type line struct {
		b     addr.Block
		st    State
		dirty bool
	}
	var gl, wl []line
	got.ForEach(func(l Line) { gl = append(gl, line{l.Block, l.State, l.Dirty}) })
	for _, l := range want.lines {
		if l.valid {
			wl = append(wl, line{l.block, l.state, l.dirty})
		}
	}
	if !slices.Equal(gl, wl) {
		t.Fatalf("valid lines diverged:\n got %v\nwant %v", gl, wl)
	}
	if g := got.ValidLines(); g != len(wl) {
		t.Fatalf("ValidLines = %d, want %d", g, len(wl))
	}
	for s := range got.Sets() {
		var g, w []addr.Block
		for _, l := range got.LRUOrder(s) {
			g = append(g, l.Block)
		}
		set := slices.Clone(want.lines[s*want.ways : (s+1)*want.ways])
		set = slices.DeleteFunc(set, func(l refLine) bool { return !l.valid })
		slices.SortFunc(set, func(a, b refLine) int { return cmp.Compare(a.used, b.used) })
		for _, l := range set {
			w = append(w, l.block)
		}
		if !slices.Equal(g, w) {
			t.Fatalf("set %d LRU order = %v, want %v", s, g, w)
		}
	}
}

// TestChunkedMatchesFlatReference runs seeded sequences of all ten accessors
// against the chunked cache and the flat reference, at 1 to 32 ways and at
// sizes below, equal to and above one chunk. Writes reach a growing prefix of
// the sets, so large caches fill their chunks over the run while reads land
// anywhere. Odd seeds start the LRU clock just short of its wrap, and put it
// there again halfway through, so renormalisation runs while chunks are
// still unfilled.
func TestChunkedMatchesFlatReference(t *testing.T) {
	const steps = 3000
	for _, ways := range []int{1, 2, 4, 8, 16, 32} {
		for _, lines := range []int{chunkLines / 4, chunkLines, 8 * chunkLines} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("ways=%d/lines=%d/seed=%d", ways, lines, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					d := newCacheDiff(t, lines, ways)
					sets := d.got.Sets()
					for n := 0; n < steps; n++ {
						if seed%2 == 1 && n%(steps/2) == 0 {
							// At least the four write paths bump the clock,
							// so it wraps before the second reset.
							if d.got.tick > ^uint32(0)-steps/8 {
								t.Fatalf("op %d: clock at %d did not wrap", n, d.got.tick)
							}
							d.got.tick = ^uint32(0) - steps/8
						}
						op := byte(rng.Intn(10))
						active := sets
						if op >= 3 && op <= 6 { // the four write paths
							active = 1 + n*sets/steps
						}
						b := addr.Block(rng.Intn(3*ways)*sets + rng.Intn(active))
						d.step(n, op, b, byte(rng.Intn(8)))
					}
					d.check()
				})
			}
		}
	}
}

// TestReadPathsAllocateNothing asks every read path about every set of fresh
// caches, one smaller than a chunk and two spanning many: no chunk may be
// filled, nothing allocated and nothing found.
func TestReadPathsAllocateNothing(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "l1", SizeBytes: 4 << 10, Ways: 8},
		{Name: "llc", SizeBytes: 1 << 20, Ways: 16},
		{Name: "dramcache", SizeBytes: 4 << 20, Ways: 1},
	} {
		c := New(cfg)
		blocks := 2 * c.Sets() * c.Ways()
		// Ten runs, so a stray allocation elsewhere in the process averages
		// below the one per run that a read path would cost.
		allocs := testing.AllocsPerRun(10, func() {
			for b := addr.Block(0); b < addr.Block(blocks); b++ {
				_, hit := c.Lookup(b)
				_, probed := c.Probe(b)
				if hit || probed || c.Contains(b) || c.Invalidate(b).Valid ||
					c.SetState(b, stM) || c.SetState(b, StateInvalid) || c.CleanBlock(b) {
					t.Fatalf("%s: block %d found in a fresh cache", cfg.Name, b)
				}
			}
			for s := range c.Sets() {
				if l := c.LRUOrder(s); len(l) != 0 {
					t.Fatalf("%s: set %d LRU order %v in a fresh cache", cfg.Name, s, l)
				}
			}
			c.ForEach(func(l Line) { t.Fatalf("%s: ForEach visited %+v in a fresh cache", cfg.Name, l) })
		})
		if allocs >= 1 {
			t.Errorf("%s: read paths allocated %v times per pass", cfg.Name, allocs)
		}
		for i, chunk := range c.chunks {
			if chunk != nil {
				t.Fatalf("%s: chunk %d of %d filled by a read path", cfg.Name, i, len(c.chunks))
			}
		}
		if n := c.ValidLines(); n != 0 {
			t.Errorf("%s: ValidLines = %d in a fresh cache", cfg.Name, n)
		}
	}
}

// FuzzCacheOps decodes bytes into an operation sequence on a small cache and
// checks each operation against the flat reference. The first byte picks the
// geometry; an odd second byte starts the LRU clock that many ticks short of
// its wrap. Each further four bytes are an accessor, a 16-bit block and an
// argument.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 0, 6, 1, 0, 1, 6, 0, 2, 2, 0, 1, 0, 0})
	f.Add([]byte{3, 41, 6, 9, 0, 5, 4, 9, 1, 2, 3, 7, 0, 1, 5, 17, 0, 6, 0, 9, 0, 0, 7, 9, 0, 3})
	f.Add([]byte{5, 7, 3, 0, 1, 1, 3, 0, 2, 1, 8, 0, 1, 0, 3, 32, 1, 4, 9, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		geom := []struct{ lines, ways int }{
			{2 * chunkLines, 1}, {chunkLines / 4, 2}, {4 * chunkLines, 4},
			{chunkLines, 8}, {chunkLines / 8, 16}, {2 * chunkLines, 32},
		}[int(data[0])%6]
		d := newCacheDiff(t, geom.lines, geom.ways)
		if data[1]%2 == 1 {
			d.got.tick = ^uint32(0) - uint32(data[1])
		}
		for n, ops := 0, data[2:]; len(ops) >= 4; n, ops = n+1, ops[4:] {
			b := addr.Block((int(ops[1]) | int(ops[2])<<8) % d.blocks)
			d.step(n, ops[0], b, ops[3])
		}
		d.check()
	})
}
