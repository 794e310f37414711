package sample

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Spec describes one systematic sampling schedule. All lengths are per-thread
// record counts; a sampling unit is Stretch fast-forwarded records followed by
// Warm detailed warm-up records followed by Window measured records.
type Spec struct {
	// Stretch is the number of records per thread that are fast-forwarded
	// (functional warming only) between detailed phases.
	Stretch int
	// Warm is the number of records per thread executed in full detail before
	// each measured window, to re-warm timing-visible state (store queues,
	// fabric occupancy, MRU positions) after a stretch.
	Warm int
	// Window is the number of records per thread in each measured window.
	Window int
	// Seed drives the initial phase offset so the first window does not
	// always land at the same stream position.
	Seed int64
}

// Enabled reports whether the spec requests sampled execution. The zero Spec
// is the disabled state (full detailed simulation).
func (s Spec) Enabled() bool { return s != Spec{} }

// Validate checks the spec's shape. The zero (disabled) spec is valid.
func (s Spec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Stretch < 1 {
		return fmt.Errorf("sample: stretch must be >= 1, got %d", s.Stretch)
	}
	if s.Warm < 0 {
		return fmt.Errorf("sample: warm must be >= 0, got %d", s.Warm)
	}
	if s.Window < 1 {
		return fmt.Errorf("sample: win must be >= 1, got %d", s.Window)
	}
	if s.Seed < 0 {
		return fmt.Errorf("sample: seed must be >= 0, got %d", s.Seed)
	}
	return nil
}

// Phase returns the seeded initial fast-forward length in [0, Stretch]: the
// systematic schedule's random starting offset. It is a pure function of the
// spec, so a fixed (config, seed, spec) triple always yields the same
// schedule no matter where or how often it runs.
func (s Spec) Phase() int {
	if s.Stretch <= 0 {
		return 0
	}
	return int(splitmix64(uint64(s.Seed)) % uint64(s.Stretch+1))
}

// splitmix64 is the SplitMix64 mixer: a tiny, dependency-free way to turn a
// user seed into a well-distributed phase offset.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// String renders the canonical spec form, parseable by Parse. The canonical
// form omits a zero seed, so Parse(s.String()) == s for every valid spec.
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	out := fmt.Sprintf("stretch=%d,warm=%d,win=%d", s.Stretch, s.Warm, s.Window)
	if s.Seed != 0 {
		out += fmt.Sprintf(",seed=%d", s.Seed)
	}
	return out
}

// Parse parses a sampling spec of the form
//
//	stretch=<records>,warm=<records>,win=<records>[,seed=<n>]
//
// Keys may appear in any order; stretch and win are required; warm defaults
// to 0 and seed to 0. The empty string parses to the disabled (zero) spec.
func Parse(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return Spec{}, nil
	}
	var s Spec
	seen := map[string]bool{}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("sample: %q is not key=value (want stretch=N,warm=N,win=N[,seed=S])", part)
		}
		key = strings.TrimSpace(key)
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("sample: bad value in %q: %v", part, err)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("sample: duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "stretch":
			s.Stretch = int(n)
		case "warm":
			s.Warm = int(n)
		case "win":
			s.Window = int(n)
		case "seed":
			s.Seed = n
		default:
			return Spec{}, fmt.Errorf("sample: unknown key %q (want stretch, warm, win, seed)", key)
		}
	}
	if !seen["stretch"] || !seen["win"] {
		return Spec{}, fmt.Errorf("sample: spec %q must set both stretch and win", text)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Window is one measured window's counter deltas, the raw material of the
// estimator. All fields are totals over the window across every thread.
type Window struct {
	// Accesses is the number of memory accesses (loads+stores) executed in
	// the window.
	Accesses uint64
	// Instructions is the number of instructions retired in the window
	// (memory accesses plus gap instructions).
	Instructions uint64
	// Cycles is the makespan of the window: the advance of the furthest-ahead
	// core clock across the window.
	Cycles uint64
	// LLCAccesses and LLCMisses are the LLC activity in the window.
	LLCAccesses uint64
	LLCMisses   uint64
	// FabricBytes is the inter-socket fabric traffic in the window.
	FabricBytes uint64
	// MemAccesses and RemoteMemAccesses are the memory-controller activity in
	// the window.
	MemAccesses       uint64
	RemoteMemAccesses uint64
}

// Estimate is one sampled metric: a point estimate and the half-width of its
// 95% confidence interval. The interval is [Value-HalfWidth, Value+HalfWidth].
type Estimate struct {
	Value     float64
	HalfWidth float64
}

// RelError returns HalfWidth/Value, or 0 when the value is 0. It is the
// relative-error form used when propagating uncertainty through ratios of two
// estimates (speedup bars).
func (e Estimate) RelError() float64 {
	if e.Value == 0 {
		return 0
	}
	return math.Abs(e.HalfWidth / e.Value)
}

// Contains reports whether v lies inside the estimate's interval.
//
//c3dlint:allow unused(the interval check TestSampledIntervalsCoverFullRun and the estimator tests assert coverage with)
func (e Estimate) Contains(v float64) bool {
	return v >= e.Value-e.HalfWidth && v <= e.Value+e.HalfWidth
}

// Format renders "value±half" with the given precision, the cell form used in
// sampled experiment tables.
func (e Estimate) Format(prec int) string {
	return fmt.Sprintf("%.*f±%.*f", prec, e.Value, prec, e.HalfWidth)
}

// Estimates bundles the derived-metric estimates of one sampled run.
type Estimates struct {
	// CPI is cycles per instruction — the time metric. Speedups between two
	// sampled runs derive their bars from the two CPI estimates.
	CPI Estimate
	// LLCMissRate is LLC misses per LLC access.
	LLCMissRate Estimate
	// FabricBytesPerAccess is off-socket fabric bytes per memory access.
	FabricBytesPerAccess Estimate
	// RemoteMemFraction is the fraction of memory accesses served by a remote
	// socket's memory.
	RemoteMemFraction Estimate
}

// MinWindows is the minimum number of measured windows the estimator
// accepts: with fewer than two windows no variance — and therefore no
// confidence interval — exists.
const MinWindows = 2

// Estimate computes the derived-metric estimates from the measured windows.
// It returns an error when fewer than MinWindows windows were measured (the
// stream is too short for the spec).
func EstimateWindows(ws []Window) (Estimates, error) {
	if len(ws) < MinWindows {
		return Estimates{}, fmt.Errorf("sample: %d measured windows, need at least %d (stream too short for the sampling spec)", len(ws), MinWindows)
	}
	est := Estimates{
		CPI:                  ratioEstimate(ws, func(w Window) (float64, float64) { return float64(w.Cycles), float64(w.Instructions) }),
		LLCMissRate:          ratioEstimate(ws, func(w Window) (float64, float64) { return float64(w.LLCMisses), float64(w.LLCAccesses) }),
		FabricBytesPerAccess: ratioEstimate(ws, func(w Window) (float64, float64) { return float64(w.FabricBytes), float64(w.Accesses) }),
		RemoteMemFraction:    ratioEstimate(ws, func(w Window) (float64, float64) { return float64(w.RemoteMemAccesses), float64(w.MemAccesses) }),
	}
	return est, nil
}

// ratioEstimate builds one metric's estimate. The point estimate is the ratio
// of sums over all windows (each window weighted by its size, which keeps the
// estimate consistent with the extrapolated totals); the half-width is the
// CLT interval of the per-window ratios — Student-t critical value at n-1
// degrees of freedom times the standard error — widened by the distance
// between the ratio-of-sums and the mean-of-ratios so the reported interval
// always covers its own centre's aggregation bias.
func ratioEstimate(ws []Window, field func(Window) (num, den float64)) Estimate {
	var sumNum, sumDen float64
	ratios := make([]float64, 0, len(ws))
	for _, w := range ws {
		num, den := field(w)
		sumNum += num
		sumDen += den
		if den > 0 {
			ratios = append(ratios, num/den)
		}
	}
	if sumDen == 0 {
		return Estimate{}
	}
	point := sumNum / sumDen
	if len(ratios) < MinWindows {
		// Too few usable windows for a variance; report the point with an
		// interval spanning the full observed value (maximally honest).
		return Estimate{Value: point, HalfWidth: math.Abs(point)}
	}
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	ss := 0.0
	for _, r := range ratios {
		d := r - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(ratios)-1))
	hw := tCritical95(len(ratios)-1)*sd/math.Sqrt(float64(len(ratios))) + math.Abs(point-mean)
	return Estimate{Value: point, HalfWidth: hw}
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values above the table fall back to the normal
// approximation.
func tCritical95(df int) float64 {
	table := []float64{
		// df 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// RatioOf propagates uncertainty through a ratio a/b of two independent
// estimates (a baseline-over-design speedup, a normalised traffic figure):
// the relative errors add in quadrature, the standard first-order
// approximation for a quotient.
func RatioOf(a, b Estimate) Estimate {
	if b.Value == 0 {
		return Estimate{}
	}
	v := a.Value / b.Value
	rel := math.Sqrt(a.RelError()*a.RelError() + b.RelError()*b.RelError())
	return Estimate{Value: v, HalfWidth: math.Abs(v) * rel}
}
