package coherence

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/cache"
)

// refDir is the flat reference a sparse Directory is checked against: one
// []dirLine of sets*ways entries, allocated whole, with every rule spelled
// out as its own scan. A full set lists its ways oldest first and asks the
// stale predicate about them in that order; the first stale way is replaced
// without a recall, and the oldest way is recalled when none is stale.
type refDir struct {
	ways  int
	lines []dirLine
	tick  uint64
	stale func(addr.Block) bool
}

func newRefDir(sets, ways int) *refDir {
	return &refDir{ways: ways, lines: make([]dirLine, sets*ways)}
}

func (r *refDir) set(b addr.Block) []dirLine {
	h := uint64(b)
	h ^= h >> 8
	h ^= h >> 16
	s := int(h % uint64(len(r.lines)/r.ways))
	return r.lines[s*r.ways : (s+1)*r.ways]
}

// find returns b's way, or nil.
func (r *refDir) find(b addr.Block) *dirLine {
	set := r.set(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

func (r *refDir) lookup(b addr.Block) (Entry, bool) {
	l := r.find(b)
	if l == nil {
		return Entry{}, false
	}
	r.tick++
	l.lastUse = r.tick
	return l.entry, true
}

func (r *refDir) probe(b addr.Block) (Entry, bool) {
	if l := r.find(b); l != nil {
		return l.entry, true
	}
	return Entry{}, false
}

func (r *refDir) remove(b addr.Block) bool {
	l := r.find(b)
	if l == nil {
		return false
	}
	*l = dirLine{}
	return true
}

func (r *refDir) update(b addr.Block, e Entry) Recall {
	if e.State == DirInvalid {
		r.remove(b)
		return Recall{}
	}
	r.tick++
	if l := r.find(b); l != nil {
		l.entry, l.lastUse = e, r.tick
		return Recall{}
	}
	set := r.set(b)
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var recall Recall
	if victim < 0 {
		order := make([]int, len(set))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(set[x].lastUse, set[y].lastUse) })
		if r.stale != nil {
			for _, i := range order {
				if r.stale(set[i].block) {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			victim = order[0]
			recall = Recall{Block: set[victim].block, Entry: set[victim].entry, Valid: true}
		}
	}
	set[victim] = dirLine{block: b, entry: e, valid: true, lastUse: r.tick}
	return recall
}

func (r *refDir) entries() int {
	n := 0
	for _, l := range r.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// TestDirectoryPrefersOldestStaleVictim fills one 4-way set with blocks 0-3
// and touches 0 and 2, so the ways from oldest to newest hold 1, 3, 0, 2.
// Allocating block 4 must replace the oldest stale entry without a recall,
// recall the LRU entry when none is stale or no predicate is set, and ask
// the predicate about the ways oldest first, each at most once.
func TestDirectoryPrefersOldestStaleVictim(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stale  []addr.Block // nil: no predicate
		victim addr.Block
		recall bool
		calls  int
	}{
		{name: "lru way stale", stale: []addr.Block{1, 3}, victim: 1, calls: 1},
		{name: "oldest stale way is not the lowest index", stale: []addr.Block{0, 3}, victim: 3, calls: 2},
		{name: "only the newest way stale", stale: []addr.Block{2}, victim: 2, calls: 4},
		{name: "no way stale", stale: []addr.Block{}, victim: 1, recall: true, calls: 4},
		{name: "nil predicate", victim: 1, recall: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newSparseDir(4, 4)
			for b := addr.Block(0); b < 4; b++ {
				d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(int(b))})
			}
			d.Lookup(0)
			d.Lookup(2)
			asked := map[addr.Block]int{}
			if tc.stale != nil {
				d.SetStalePredicate(func(b addr.Block) bool {
					asked[b]++
					return slices.Contains(tc.stale, b)
				})
			}
			r := d.Update(4, Entry{State: DirModified, Owner: 1, Sharers: NewSharerSet(1)})
			if r.Valid != tc.recall || (r.Valid && r.Block != tc.victim) {
				t.Fatalf("recall = %+v, want recall %v of block %d", r, tc.recall, tc.victim)
			}
			if _, ok := d.Probe(tc.victim); ok {
				t.Errorf("victim block %d still present", tc.victim)
			}
			if _, ok := d.Probe(4); !ok {
				t.Error("allocated block 4 missing")
			}
			calls := 0
			for b, n := range asked {
				calls += n
				if n > 1 {
					t.Errorf("predicate asked about block %d %d times", b, n)
				}
			}
			if calls != tc.calls {
				t.Errorf("predicate calls = %d, want %d", calls, tc.calls)
			}
		})
	}
}

// dirDiff drives a Directory and the flat reference through the same
// operations. Both share one stale view over a mutable set of cached blocks,
// which the operations toggle, and each logs the blocks its predicate is
// asked about.
type dirDiff struct {
	tb        testing.TB
	got       *Directory
	want      *refDir
	ways      int
	cached    map[addr.Block]bool
	gotAsked  []addr.Block
	wantAsked []addr.Block
}

// diffSets is the number of sets in a dirDiff directory.
const diffSets = 8

func newDirDiff(tb testing.TB, ways int) *dirDiff {
	d := &dirDiff{
		tb:     tb,
		got:    NewDirectory(DirConfig{Name: "diff", Entries: diffSets * ways, Ways: ways}),
		want:   newRefDir(diffSets, ways),
		ways:   ways,
		cached: map[addr.Block]bool{},
	}
	d.got.SetStalePredicate(func(b addr.Block) bool { d.gotAsked = append(d.gotAsked, b); return !d.cached[b] })
	d.want.stale = func(b addr.Block) bool { d.wantAsked = append(d.wantAsked, b); return !d.cached[b] }
	return d
}

// blocks is the number of candidate blocks: three per way keep every set
// under conflict pressure.
func (d *dirDiff) blocks() int { return 3 * diffSets * d.ways }

// step applies operation op to block b; arg picks the entry an update stores
// or whether a toggled block is cached. It fails the test on the first
// difference in results, predicate calls, entry counts or set contents.
func (d *dirDiff) step(n int, op byte, b addr.Block, arg byte) {
	d.tb.Helper()
	switch op % 10 {
	case 0, 1, 2, 3, 4:
		e := Entry{State: DirShared + DirState(arg%2), Owner: int(arg>>4) % 4, Sharers: SharerSet(arg & 0xF)}
		if arg%8 == 7 {
			e = Entry{State: DirInvalid}
		}
		d.gotAsked, d.wantAsked = d.gotAsked[:0], d.wantAsked[:0]
		if g, w := d.got.Update(b, e), d.want.update(b, e); g != w {
			d.tb.Fatalf("step %d: Update(%d) recall = %+v, want %+v", n, b, g, w)
		}
		if !slices.Equal(d.gotAsked, d.wantAsked) {
			d.tb.Fatalf("step %d: Update(%d) asked the predicate about %v, want %v", n, b, d.gotAsked, d.wantAsked)
		}
	case 5, 6:
		ge, gok := d.got.Lookup(b)
		we, wok := d.want.lookup(b)
		if ge != we || gok != wok {
			d.tb.Fatalf("step %d: Lookup(%d) = %+v %v, want %+v %v", n, b, ge, gok, we, wok)
		}
	case 7:
		ge, gok := d.got.Probe(b)
		we, wok := d.want.probe(b)
		if ge != we || gok != wok {
			d.tb.Fatalf("step %d: Probe(%d) = %+v %v, want %+v %v", n, b, ge, gok, we, wok)
		}
	case 8:
		if g, w := d.got.Remove(b), d.want.remove(b); g != w {
			d.tb.Fatalf("step %d: Remove(%d) = %v, want %v", n, b, g, w)
		}
	default:
		d.cached[b] = arg%2 == 1
	}
	if g, w := d.got.Entries(), d.want.entries(); g != w {
		d.tb.Fatalf("step %d: Entries = %d, want %d", n, g, w)
	}
	// A grown set is the head of the reference's set: the ways it has not
	// grown into yet were never used. Which way an allocation lands in, and
	// each way's tick, are invisible to lookups, so compare them directly.
	for s, set := range d.got.sets {
		ref := d.want.lines[s*d.ways : (s+1)*d.ways]
		if len(set) > d.ways || !slices.Equal(set, ref[:len(set)]) || slices.ContainsFunc(ref[len(set):], func(l dirLine) bool { return l != dirLine{} }) {
			d.tb.Fatalf("step %d: set %d = %+v, want %+v", n, s, set, ref)
		}
	}
}

// TestUpdateMatchesAllWaysReference runs seeded Update, Lookup, Probe and
// Remove sequences against a sparse Directory, whose sets grow on use, and
// the flat reference, whose sets are allocated whole, on 1-, 2-, 4- and
// 32-way directories, toggling which blocks are cached between operations.
// Remove leaves holes that later allocations must fill before a set grows.
// Each seed caches a different share of the blocks, from none (every full set
// has a stale way) to all (every allocation into a full set recalls), so both
// outcomes and the walk between them are covered. It catches a walk that
// picks the newest stale way, one that starts past the LRU way, a free-way
// scan that keeps the highest-index way, and a set that grows while it still
// has a hole.
func TestUpdateMatchesAllWaysReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 32} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("ways=%d/seed=%d", ways, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				share := float64(seed%5) / 4
				d := newDirDiff(t, ways)
				for b := 0; b < d.blocks(); b++ {
					d.cached[addr.Block(b)] = rng.Float64() < share
				}
				for n := 0; n < 4000; n++ {
					op, b, arg := byte(rng.Intn(10)), addr.Block(rng.Intn(d.blocks())), byte(rng.Intn(256))
					if op == 9 {
						// A toggle draws the block's new state at the seed's share.
						arg = 0
						if rng.Float64() < share {
							arg = 1
						}
					}
					d.step(n, op, b, arg)
				}
			})
		}
	}
}

// FuzzDirectoryUpdate decodes bytes into the same operation sequences and
// checks them against the flat reference. The first byte picks 1, 2, 4
// or 32 ways; every later triple is an operation, a block and an argument.
func FuzzDirectoryUpdate(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 9, 3, 0, 17, 1, 5, 9, 3, 1})
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 2, 3, 0, 9, 4, 1, 0, 7, 6, 5, 2, 0, 8, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := newDirDiff(t, []int{1, 2, 4, 32}[data[0]%4])
		for n, ops := 0, data[1:]; len(ops) >= 3; n, ops = n+1, ops[3:] {
			d.step(n, ops[0], addr.Block(int(ops[1])%d.blocks()), ops[2])
		}
	})
}

// BenchmarkDirectoryUpdateFullSet allocates a stream of fresh blocks into a
// 32-way slice whose sets are all full, each block also filled into an LLC
// of half the slice's capacity, as the Table II 2x directory is sized. The
// stale predicate probes that LLC, so the slice's oldest entries are stale
// and its newest live, and every allocation replaces a way.
func BenchmarkDirectoryUpdateFullSet(b *testing.B) {
	b.ReportAllocs()
	const ways, sets = 32, 64
	d := NewDirectory(DirConfig{Name: "bench", Entries: ways * sets, Ways: ways})
	llc := cache.New(cache.Config{Name: "llc", SizeBytes: ways * sets / 2 * addr.BlockBytes, Ways: 16})
	d.SetStalePredicate(func(blk addr.Block) bool { return !llc.Contains(blk) })
	e := Entry{State: DirShared, Sharers: NewSharerSet(0)}
	next := addr.Block(0)
	for ; next < 4*ways*sets; next++ {
		d.Update(next, e)
		llc.Fill(next, 1, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(next, e)
		llc.Fill(next, 1, false)
		next++
	}
}
