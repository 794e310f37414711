package coherence

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/cache"
)

// allWaysUpdate is the reference Update is checked against: a scan for the
// present block, one for the lowest-index free way, one for the LRU way and,
// in a full set, one that asks the stale predicate about every way, as
// Update was first written.
func allWaysUpdate(d *Directory, b addr.Block, e Entry) Recall {
	if e.State == DirInvalid {
		d.Remove(b)
		return Recall{}
	}
	set := d.set(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			d.tick++
			set[i].entry = e
			set[i].lastUse = d.tick
			return Recall{}
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var recall Recall
	if victim < 0 {
		lru, lruStale := 0, -1
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[lru].lastUse {
				lru = i
			}
		}
		if d.stale != nil {
			for i := range set {
				if d.stale(set[i].block) && (lruStale < 0 || set[i].lastUse < set[lruStale].lastUse) {
					lruStale = i
				}
			}
		}
		if lruStale >= 0 {
			victim = lruStale
		} else {
			victim = lru
			recall = Recall{Block: set[victim].block, Entry: set[victim].entry, Valid: true}
		}
	}
	d.tick++
	set[victim] = dirLine{block: b, entry: e, valid: true, lastUse: d.tick}
	return recall
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

// dirDiff drives a Directory and the all-ways reference through the same
// operations. Both share one stale predicate over a mutable set of cached
// blocks, which the operations toggle.
type dirDiff struct {
	tb        testing.TB
	got, want *Directory
	ways      int
	cached    map[addr.Block]bool
	asked     int
}

// diffSets is the number of sets in a dirDiff directory.
const diffSets = 8

func newDirDiff(tb testing.TB, ways int) *dirDiff {
	cfg := DirConfig{Name: "diff", Entries: diffSets * ways, Ways: ways}
	d := &dirDiff{tb: tb, got: NewDirectory(cfg), want: NewDirectory(cfg), ways: ways, cached: map[addr.Block]bool{}}
	d.got.SetStalePredicate(func(b addr.Block) bool { d.asked++; return !d.cached[b] })
	d.want.SetStalePredicate(func(b addr.Block) bool { return !d.cached[b] })
	return d
}

// blocks is the number of candidate blocks: three per way keep every set
// under conflict pressure.
func (d *dirDiff) blocks() int { return 3 * diffSets * d.ways }

// step applies operation op to block b; arg picks the entry an update stores
// or whether a toggled block is cached. It fails the test on the first
// difference in results or the raw line arrays.
func (d *dirDiff) step(n int, op byte, b addr.Block, arg byte) {
	d.tb.Helper()
	switch op % 10 {
	case 0, 1, 2, 3, 4:
		e := Entry{State: DirShared + DirState(arg%2), Owner: int(arg>>4) % 4, Sharers: SharerSet(arg & 0xF)}
		if arg%8 == 7 {
			e = Entry{State: DirInvalid}
		}
		d.asked = 0
		if g, w := d.got.Update(b, e), allWaysUpdate(d.want, b, e); g != w {
			d.tb.Fatalf("step %d: Update(%d) recall = %+v, want %+v", n, b, g, w)
		}
		if d.asked > d.ways {
			d.tb.Fatalf("step %d: Update(%d) asked the predicate %d times in a %d-way set", n, b, d.asked, d.ways)
		}
	case 5, 6:
		ge, gok := d.got.Lookup(b)
		we, wok := d.want.Lookup(b)
		if ge != we || gok != wok {
			d.tb.Fatalf("step %d: Lookup(%d) = %+v %v, want %+v %v", n, b, ge, gok, we, wok)
		}
	case 7:
		ge, gok := d.got.Probe(b)
		we, wok := d.want.Probe(b)
		if ge != we || gok != wok {
			d.tb.Fatalf("step %d: Probe(%d) = %+v %v, want %+v %v", n, b, ge, gok, we, wok)
		}
	case 8:
		if g, w := d.got.Remove(b), d.want.Remove(b); g != w {
			d.tb.Fatalf("step %d: Remove(%d) = %v, want %v", n, b, g, w)
		}
	default:
		d.cached[b] = arg%2 == 1
	}
	// Which way an allocation lands in, and each way's tick, are invisible
	// to lookups, so compare the arrays directly.
	if !slices.Equal(d.got.lines, d.want.lines) {
		d.tb.Fatalf("step %d: line arrays diverged", n)
	}
}

// TestUpdateMatchesAllWaysReference runs seeded Update, Lookup, Probe and
// Remove sequences against Update and the all-ways reference on 1-, 2-, 4-
// and 32-way directories, toggling which blocks are cached between
// operations. Each seed caches a different share of the blocks, from none
// (every full set has a stale way) to all (every allocation into a full set
// recalls), so both outcomes and the walk between them are covered. It
// catches a walk that picks the newest stale way, one that starts past the
// LRU way, and a free-way scan that keeps the highest-index way.
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
// checks them against the all-ways reference. The first byte picks 1, 2, 4
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
