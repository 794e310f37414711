package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyAccumulator(t *testing.T) {
	var l LatencyAccumulator
	if l.Mean() != 0 {
		t.Error("empty accumulator mean should be 0")
	}
	l.Observe(10)
	l.Observe(20)
	l.Observe(60)
	if l.Count() != 3 || l.Total() != 90 {
		t.Errorf("count=%d total=%d", l.Count(), l.Total())
	}
	if l.Mean() != 30 {
		t.Errorf("mean = %v, want 30", l.Mean())
	}
}

func TestRatioSpeedupNormalized(t *testing.T) {
	if Speedup(100, 0) != 0 || Speedup(150, 100) != 1.5 {
		t.Error("Speedup")
	}
	if Normalized(50, 100) != 0.5 || Normalized(5, 0) != 0 {
		t.Error("Normalized")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{-1, 0}); g != 0 {
		t.Errorf("geomean of non-positive = %v", g)
	}
	// Non-positive entries are skipped.
	if g := Geomean([]float64{0, 2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean skipping zero = %v, want 4", g)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean")
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.746) != "74.6%" {
		t.Errorf("Percent = %q", Percent(0.746))
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("workload", "speedup")
	tab.AddRow("streamcluster", "1.51")
	tab.AddRow("nutch") // short row padded
	s := tab.String()
	if !strings.Contains(s, "workload") || !strings.Contains(s, "streamcluster") {
		t.Errorf("table output missing content:\n%s", s)
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table should have 4 lines, got %d:\n%s", len(lines), s)
	}
}

// Property: geomean of a slice lies between its min and max.
func TestGeomeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r%1000)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
