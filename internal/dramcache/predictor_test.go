package dramcache

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func TestPredictorRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{4096, 4096}, {5000, 4096}, {1, 1}, {0, 1}, {3, 2},
	} {
		if got := len(NewMissPredictor(tc.in).regions); got != tc.want {
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
	if acc := s.Accuracy(); acc < 0.66 || acc > 0.67 {
		t.Errorf("Accuracy = %.3f, want 2/3", acc)
	}
	p.ResetStats()
	if p.Stats().Predictions != 0 {
		t.Error("ResetStats did not clear prediction counters")
	}
	if !p.Predict(addr.Block(1)) {
		t.Error("ResetStats must not forget region contents")
	}
}

func TestPredictorTrackedRegions(t *testing.T) {
	p := NewMissPredictor(64)
	if p.TrackedRegions() != 0 {
		t.Fatal("new predictor should track no regions")
	}
	p.BlockFilled(addr.Block(0))
	p.BlockFilled(addr.Block(addr.BlocksPerPage))
	if got := p.TrackedRegions(); got != 2 {
		t.Errorf("TrackedRegions = %d, want 2", got)
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

func TestPredictorAccuracyZeroWhenUnused(t *testing.T) {
	var s PredictorStats
	if s.Accuracy() != 0 {
		t.Error("Accuracy of an unused predictor should be 0")
	}
}
