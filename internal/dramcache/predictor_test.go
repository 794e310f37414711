package dramcache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func TestPredictorRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{4096, 4096}, {5000, 4096}, {1, 1}, {0, 1}, {3, 2},
	} {
		if got := int(NewMissPredictor(tc.in).mask + 1); got != tc.want {
			t.Errorf("NewMissPredictor(%d) has %d entries, want %d", tc.in, got, tc.want)
		}
	}
}

func TestPredictorLearnsRegion(t *testing.T) {
	p := NewMissPredictor(4096)
	b := addr.Block(100)
	if p.Predict(b) {
		t.Fatal("cold predictor should predict miss")
	}
	p.BlockFilled(b)
	if !p.Predict(b) {
		t.Fatal("after a fill the region should predict hit")
	}
	// Another block in the same page also predicts hit (region granularity).
	sameRegion := b + 1
	if addr.PageOfBlock(sameRegion) != addr.PageOfBlock(b) {
		t.Fatal("test bug: blocks not in the same page")
	}
	if !p.Predict(sameRegion) {
		t.Error("block in a tracked region should predict hit")
	}
	// A block in a different page predicts miss.
	otherRegion := b + addr.BlocksPerPage
	if p.Predict(otherRegion) {
		t.Error("block in an untracked region should predict miss")
	}
}

func TestPredictorEvictionDecrements(t *testing.T) {
	p := NewMissPredictor(16)
	b := addr.Block(5)
	p.BlockFilled(b)
	p.BlockFilled(b + 1)
	p.BlockEvicted(b)
	if !p.Predict(b + 1) {
		t.Error("region with one remaining block should still predict hit")
	}
	p.BlockEvicted(b + 1)
	if p.Predict(b) {
		t.Error("region with zero resident blocks should predict miss")
	}
	// An extra eviction must not underflow the counter.
	p.BlockEvicted(b)
	if p.Predict(b) {
		t.Error("counter underflow changed the prediction")
	}
}

func TestPredictorDisplacement(t *testing.T) {
	// A single-entry table: filling a block from a second region displaces
	// the first, which then (conservatively) predicts miss.
	p := NewMissPredictor(1)
	a := addr.Block(0)
	b := addr.Block(addr.BlocksPerPage) // a different page
	p.BlockFilled(a)
	p.BlockFilled(b)
	if p.Predict(a) {
		t.Error("displaced region should predict miss")
	}
	if !p.Predict(b) {
		t.Error("current region should predict hit")
	}
}

func TestPredictorAccuracyStats(t *testing.T) {
	p := NewMissPredictor(64)
	// Prediction 1: cold -> predicted miss, actual miss (correct).
	pred := p.Predict(addr.Block(1))
	p.Resolve(pred, false)
	// Prediction 2: after fill -> predicted hit, actual hit (correct).
	p.BlockFilled(addr.Block(1))
	pred = p.Predict(addr.Block(1))
	p.Resolve(pred, true)
	// Prediction 3: same region, different block -> predicted hit, actual
	// miss (false hit).
	pred = p.Predict(addr.Block(2))
	p.Resolve(pred, false)
	s := p.Stats()
	if s.Predictions != 3 {
		t.Fatalf("Predictions = %d, want 3", s.Predictions)
	}
	if s.FalseHits != 1 || s.FalseMisses != 0 {
		t.Errorf("FalseHits = %d, FalseMisses = %d; want 1, 0", s.FalseHits, s.FalseMisses)
	}
	p.ResetStats()
	if p.Stats().Predictions != 0 {
		t.Error("ResetStats did not clear prediction counters")
	}
	if !p.Predict(addr.Block(1)) {
		t.Error("ResetStats must not forget region contents")
	}
}

// Property: a predictor with a large table always predicts hit for a block
// right after that block was filled (no aliasing possible within the
// property's address range), and predicts miss after the fill is undone.
func TestPredictorFillEvictProperty(t *testing.T) {
	p := NewMissPredictor(1 << 16)
	f := func(raw uint16) bool {
		b := addr.Block(raw)
		p.BlockFilled(b)
		hitAfterFill := p.Predict(b)
		p.BlockEvicted(b)
		// After removing the only tracked block of the region the region may
		// still be tracked by other fills from earlier iterations of the
		// property; restrict the check to the positive direction.
		return hitAfterFill
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refPredictor is the flat reference the chunked MissPredictor is checked
// against: one []predictorEntry of the whole table, allocated up front.
type refPredictor struct {
	entries    []predictorEntry
	stats      PredictorStats
	lastRegion addr.Page
}

func (r *refPredictor) slot(region addr.Page) *predictorEntry {
	return &r.entries[int(uint64(region)%uint64(len(r.entries)))]
}

func (r *refPredictor) predict(b addr.Block) bool {
	region := addr.PageOfBlock(b)
	e := r.slot(region)
	hit := e.valid && e.region == region && e.counter >= predictorThreshold
	r.stats.Predictions++
	if hit {
		r.stats.PredictedHit++
	} else {
		r.stats.PredictedMiss++
	}
	r.lastRegion = region
	return hit
}

func (r *refPredictor) resolve(predictedHit, actualHit bool) {
	if predictedHit && !actualHit {
		r.stats.FalseHits++
	}
	if !predictedHit && actualHit {
		r.stats.FalseMisses++
	}
	e := r.slot(r.lastRegion)
	if !e.valid || e.region != r.lastRegion {
		*e = predictorEntry{region: r.lastRegion, valid: true}
	}
	if actualHit {
		e.counter = min(e.counter+1, predictorMax)
	} else if e.counter > 0 {
		e.counter--
	}
}

func (r *refPredictor) filled(b addr.Block) {
	region := addr.PageOfBlock(b)
	e := r.slot(region)
	if !e.valid || e.region != region {
		*e = predictorEntry{region: region, counter: predictorThreshold, valid: true}
		return
	}
	e.counter = min(max(e.counter+1, predictorThreshold), predictorMax)
}

func (r *refPredictor) evicted(b addr.Block) {
	region := addr.PageOfBlock(b)
	if e := r.slot(region); e.valid && e.region == region && e.counter > 0 {
		e.counter--
	}
}

// entryAt returns table entry i of p, reading an unwritten chunk as invalid.
func entryAt(p *MissPredictor, i int) predictorEntry {
	if chunk := p.regions[i>>predictorChunkBits]; chunk != nil {
		return chunk[i&(1<<predictorChunkBits-1)]
	}
	return predictorEntry{}
}

// TestPredictorMatchesFlatReference runs seeded mixes of Predict, Resolve,
// BlockFilled and BlockEvicted on 1-, 16-, 256- and 4096-entry tables,
// over three times as many pages as entries so regions alias, and compares
// every prediction, the statistics and the written entry with the flat
// reference after each operation, and the whole table at the end.
func TestPredictorMatchesFlatReference(t *testing.T) {
	for _, entries := range []int{1, 16, 256, 4096} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got, want := NewMissPredictor(entries), &refPredictor{entries: make([]predictorEntry, entries)}
				pages := 3 * entries
				for n := 0; n < 20000; n++ {
					b := addr.Block(rng.Intn(pages*addr.BlocksPerPage)) + addr.Block(seed)<<32
					switch op := rng.Intn(5); op {
					case 0, 1:
						gp, wp := got.Predict(b), want.predict(b)
						if gp != wp {
							t.Fatalf("op %d: Predict(%d) = %v, want %v", n, b, gp, wp)
						}
						if op == 0 {
							actual := rng.Intn(2) == 0
							got.Resolve(gp, actual)
							want.resolve(wp, actual)
						}
					case 2:
						got.BlockFilled(b)
						want.filled(b)
					default:
						got.BlockEvicted(b)
						want.evicted(b)
					}
					if got.Stats() != want.stats {
						t.Fatalf("op %d: stats = %+v, want %+v", n, got.Stats(), want.stats)
					}
					// Every operation writes at most the entry of b's page.
					if i := int(uint64(addr.PageOfBlock(b)) % uint64(entries)); entryAt(got, i) != want.entries[i] {
						t.Fatalf("op %d: entry %d = %+v, want %+v", n, i, entryAt(got, i), want.entries[i])
					}
				}
				for i := range want.entries {
					if g := entryAt(got, i); g != want.entries[i] {
						t.Fatalf("entry %d = %+v, want %+v", i, g, want.entries[i])
					}
				}
			})
		}
	}
}

// TestPredictorReadsAllocateNothing checks that Predict and BlockEvicted on
// a fresh predictor leave every chunk unallocated, and that a fill
// allocates only its own chunk.
func TestPredictorReadsAllocateNothing(t *testing.T) {
	p := NewMissPredictor(4096)
	for b := addr.Block(0); b < 1<<20; b += 7 {
		p.Predict(b)
		p.BlockEvicted(b)
	}
	for i, chunk := range p.regions {
		if chunk != nil {
			t.Fatalf("chunk %d allocated by a read", i)
		}
	}
	p.BlockFilled(0)
	for i, chunk := range p.regions {
		if (chunk != nil) != (i == 0) {
			t.Errorf("chunk %d allocated = %v after filling block 0", i, chunk != nil)
		}
	}
}
