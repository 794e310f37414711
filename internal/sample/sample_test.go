package sample

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"stretch=1000,warm=50,win=100", Spec{Stretch: 1000, Warm: 50, Window: 100}},
		{"win=100,stretch=1000", Spec{Stretch: 1000, Window: 100}},
		{" stretch=8 , warm=0 , win=4 , seed=7 ", Spec{Stretch: 8, Warm: 0, Window: 4, Seed: 7}},
		{"", Spec{}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Canonical form must re-parse to the same spec.
		back, err := Parse(got.String())
		if err != nil {
			t.Fatalf("Parse(String(%+v)): %v", got, err)
		}
		if back != got {
			t.Errorf("canonical round trip: %+v -> %q -> %+v", got, got.String(), back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"stretch=1000",      // missing win
		"win=100",           // missing stretch
		"stretch=0,win=100", // stretch < 1
		"stretch=10,win=0",  // win < 1
		"stretch=10,win=5,warm=-1",
		"stretch=10,win=5,seed=-3",
		"stretch=10,win=5,bogus=1",
		"stretch=10,stretch=10,win=5",
		"stretch=ten,win=5",
		"banana",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestPhaseSeededAndBounded(t *testing.T) {
	s := Spec{Stretch: 100, Warm: 10, Window: 20}
	seen := map[int]bool{}
	for seed := int64(0); seed < 64; seed++ {
		s.Seed = seed
		p := s.Phase()
		if p < 0 || p > s.Stretch {
			t.Fatalf("seed %d: phase %d outside [0,%d]", seed, p, s.Stretch)
		}
		if p != s.Phase() {
			t.Fatalf("seed %d: phase not deterministic", seed)
		}
		seen[p] = true
	}
	if len(seen) < 16 {
		t.Errorf("64 seeds produced only %d distinct phases", len(seen))
	}
}

func TestEstimateWindows(t *testing.T) {
	// Identical windows: exact point estimates, zero half-width.
	w := Window{
		Accesses: 100, Instructions: 400, Cycles: 800,
		LLCAccesses: 50, LLCMisses: 10,
		FabricBytes: 640, MemAccesses: 20, RemoteMemAccesses: 5,
	}
	est, err := EstimateWindows([]Window{w, w, w, w})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.CPI.Value; math.Abs(got-2.0) > 1e-12 {
		t.Errorf("CPI = %v, want 2.0", got)
	}
	if got := est.LLCMissRate.Value; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("LLC miss rate = %v, want 0.2", got)
	}
	if got := est.FabricBytesPerAccess.Value; math.Abs(got-6.4) > 1e-12 {
		t.Errorf("bytes/access = %v, want 6.4", got)
	}
	if got := est.RemoteMemFraction.Value; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("remote fraction = %v, want 0.25", got)
	}
	if est.CPI.HalfWidth != 0 || est.LLCMissRate.HalfWidth != 0 {
		t.Errorf("identical windows should have zero half-width, got %+v", est)
	}

	// Varying windows: the interval must contain the ratio-of-sums centre
	// and the mean of per-window ratios.
	w2 := w
	w2.Cycles = 1200
	est, err = EstimateWindows([]Window{w, w2, w, w2})
	if err != nil {
		t.Fatal(err)
	}
	if est.CPI.HalfWidth <= 0 {
		t.Errorf("varying windows should have positive half-width")
	}
	if !est.CPI.Contains(est.CPI.Value) || !est.CPI.Contains(2.5) {
		t.Errorf("CPI interval %+v should contain both the centre and the mean of ratios", est.CPI)
	}
}

func TestEstimateWindowsTooFew(t *testing.T) {
	_, err := EstimateWindows([]Window{{Accesses: 1, Instructions: 1, Cycles: 1}})
	if err == nil || !strings.Contains(err.Error(), "stream too short") {
		t.Fatalf("want too-few-windows error, got %v", err)
	}
}

func TestRatioOf(t *testing.T) {
	a := Estimate{Value: 10, HalfWidth: 1}  // 10% rel
	b := Estimate{Value: 5, HalfWidth: 0.5} // 10% rel
	r := RatioOf(a, b)
	if math.Abs(r.Value-2.0) > 1e-12 {
		t.Errorf("ratio = %v, want 2", r.Value)
	}
	wantRel := math.Sqrt(0.02) // sqrt(0.1^2 + 0.1^2)
	if math.Abs(r.RelError()-wantRel) > 1e-12 {
		t.Errorf("rel error = %v, want %v", r.RelError(), wantRel)
	}
	if z := RatioOf(a, Estimate{}); z != (Estimate{}) {
		t.Errorf("ratio over zero should be the zero estimate, got %+v", z)
	}
}

func TestFormat(t *testing.T) {
	e := Estimate{Value: 1.23456, HalfWidth: 0.04321}
	if got := e.Format(3); got != "1.235±0.043" {
		t.Errorf("Format(3) = %q", got)
	}
}
