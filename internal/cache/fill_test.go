package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
)

// threeScanFill is the reference Fill is checked against: a scan for a hit,
// then one for the lowest-index invalid way, then an LRU search over the whole
// set, as Fill was first written.
func threeScanFill(c *Cache, b addr.Block, st State, dirty bool) Victim {
	set := c.fillSet(b)
	for i := range set {
		if set[i].valid && set[i].Block == b {
			set[i].State = st
			set[i].Dirty = set[i].Dirty || dirty
			set[i].lastUse = c.bump()
			return Victim{}
		}
	}
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	var victim Victim
	if victimIdx < 0 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victimIdx].lastUse {
				victimIdx = i
			}
		}
		v := set[victimIdx]
		victim = Victim{Block: v.Block, State: v.State, Dirty: v.Dirty, Valid: true}
	}
	set[victimIdx] = Line{Block: b, State: st, Dirty: dirty, valid: true, lastUse: c.bump()}
	return victim
}

// TestFillMatchesThreeScanReference runs the same seeded Fill, Lookup,
// Invalidate and SetState sequences against Fill and the three-scan reference
// on caches of 1, 2, 4 and 16 ways. Invalidations punch holes anywhere in a
// set, so fills meet sets that are full, empty and partly invalid. Every
// victim and lookup must agree; at the end so must the contents of
// every block and, found by evicting each set way by way, the LRU order.
func TestFillMatchesThreeScanReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("ways=%d/seed=%d", ways, seed), func(t *testing.T) {
				diffFill(t, ways, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func diffFill(t *testing.T, ways int, rng *rand.Rand) {
	cfg := Config{Name: "diff", SizeBytes: uint64(8*ways) * addr.BlockBytes, Ways: ways}
	got, want := New(cfg), New(cfg)
	sets := got.Sets()
	// Three candidate blocks per way keep every set under conflict pressure.
	blocks := 3 * sets * ways
	for step := 0; step < 3000; step++ {
		b := addr.Block(rng.Intn(blocks))
		switch op := rng.Intn(10); {
		case op < 5:
			st, dirty := State(1+rng.Intn(3)), rng.Intn(2) == 0
			if g, w := got.Fill(b, st, dirty), threeScanFill(want, b, st, dirty); g != w {
				t.Fatalf("step %d: Fill(%d) victim = %+v, want %+v", step, b, g, w)
			}
		case op < 7:
			gl, gh := got.Lookup(b)
			wl, wh := want.Lookup(b)
			if gh != wh || (gh && *gl != *wl) {
				t.Fatalf("step %d: Lookup(%d) diverged: %v %+v vs %v %+v", step, b, gh, gl, wh, wl)
			}
		case op < 9:
			if g, w := got.Invalidate(b), want.Invalidate(b); g != w {
				t.Fatalf("step %d: Invalidate(%d) = %+v, want %+v", step, b, g, w)
			}
		default:
			st := State(rng.Intn(3)) // StateInvalid included
			if g, w := got.SetState(b, st), want.SetState(b, st); g != w {
				t.Fatalf("step %d: SetState(%d, %d) = %v, want %v", step, b, st, g, w)
			}
		}
		// Which way a fill lands in is invisible to lookups, so compare the
		// chunk tables directly: the free way must be the lowest-index one,
		// and both caches must have filled the same chunks.
		if !slices.EqualFunc(got.chunks, want.chunks, func(g, w []Line) bool {
			return (g == nil) == (w == nil) && slices.Equal(g, w)
		}) {
			t.Fatalf("step %d: chunk tables diverged", step)
		}
	}

	for b := addr.Block(0); b < addr.Block(blocks); b++ {
		gl, gok := got.Probe(b)
		wl, wok := want.Probe(b)
		if gok != wok || (gok && *gl != *wl) {
			t.Fatalf("final contents of block %d: %v %+v vs %v %+v", b, gok, gl, wok, wl)
		}
	}
	// Filling a set with ways fresh blocks evicts its valid lines in LRU
	// order, so equal victim sequences mean equal replacement order.
	for s := 0; s < sets; s++ {
		for i := 0; i < ways; i++ {
			fresh := addr.Block(blocks + i*sets + s)
			if g, w := got.Fill(fresh, stS, false), threeScanFill(want, fresh, stS, false); g != w {
				t.Fatalf("set %d eviction %d: victim = %+v, want %+v", s, i, g, w)
			}
		}
	}
}
