package machine

import (
	"context"
	"testing"

	"c3d/internal/sample"
	"c3d/internal/workload"
)

// validitySpec is the sampling spec the CI sample-smoke gate runs; keeping
// the test suite on the same spec means the statistical claims are validated
// at exactly the configuration the gate (and the docs) advertise.
const validitySpec = "stretch=2800,warm=30,win=30"

// TestSampledIntervalsCoverFullRun is the statistical-validity contract over
// the whole evaluation suite: every paper workload under the baseline and
// C3D designs at the fig6 quick scale, full detailed run vs sampled run,
// every derived metric.
//
// Two assertions, both calibrated to what a 95% confidence interval can
// honestly promise:
//
//   - Coverage rate: across the whole grid, at least 85% of the full-run
//     values must lie inside the sampled run's reported interval. Exact 95%
//     intervals are expected to miss ~5% of cells by construction, and
//     near-deterministic metrics (an LLC miss rate of 0.97 with a ±0.001
//     bar) can be missed by small measurement-region differences that CPI
//     ratios cancel — but a drop below 85% means the bars have stopped
//     meaning anything.
//   - CPI bias bound: per cell, the full-run CPI must lie within
//     max(2 half-widths, 20% of the value) of the estimate. The sampled
//     estimator reports mean-core CPI while the full run reports parallel
//     time (max core), so a few half-widths of skew on imbalanced workloads
//     is legitimate; a functional-warming bug is not subtle — when the
//     fast-forward path stopped warming the DRAM caches, CPI was off by
//     integer multiples of the half-width on most of the grid.
//
// The byte-identity half of the validity claim (parallelism 1 vs 8,
// repeated runs) lives in TestSampledRunDeterministicAndAccounted and the
// experiments-level TestSampledSweepDeterministicAcrossParallelism.
func TestSampledIntervalsCoverFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 quick-scale simulations; skipped in -short mode")
	}
	spec, err := sample.Parse(validitySpec)
	if err != nil {
		t.Fatalf("parsing spec %q: %v", validitySpec, err)
	}
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 6000}
	covered, cells := 0, 0
	for _, name := range workload.Names() {
		tr := workload.MustGenerate(workload.MustGet(name), opts)
		for _, design := range []Design{Baseline, C3D} {
			cfg := DefaultConfig(4, design)
			cfg.Scale = 512
			cfg.CoresPerSocket = 2

			full, err := New(cfg).RunSource(context.Background(), tr.Source(), DefaultRunOptions())
			if err != nil {
				t.Fatalf("%s/%v: full run: %v", name, design, err)
			}
			sampled, err := New(cfg).RunSource(context.Background(), tr.Source(), sampledOpts(spec))
			if err != nil {
				t.Fatalf("%s/%v: sampled run: %v", name, design, err)
			}
			if sampled.Sampling == nil {
				t.Fatalf("%s/%v: sampled run has no Sampling section", name, design)
			}

			est := sampled.Sampling.Estimates
			for _, m := range []struct {
				metric string
				est    sample.Estimate
				full   float64
			}{
				{"CPI", est.CPI, float64(full.Cycles) / float64(full.Instructions)},
				{"LLCMissRate", est.LLCMissRate, full.Counters.LLCMissRate()},
				{"FabricBytesPerAccess", est.FabricBytesPerAccess,
					float64(full.InterSocketBytes) / float64(full.Counters.Loads+full.Counters.Stores)},
				{"RemoteMemFraction", est.RemoteMemFraction, full.Counters.RemoteMemFraction()},
			} {
				cells++
				if m.est.Contains(m.full) {
					covered++
				} else {
					t.Logf("%s/%v/%s: full value %.5f outside sampled %.5f±%.5f",
						name, design, m.metric, m.full, m.est.Value, m.est.HalfWidth)
				}
			}

			fullCPI := float64(full.Cycles) / float64(full.Instructions)
			dev := fullCPI - est.CPI.Value
			if dev < 0 {
				dev = -dev
			}
			if limit := max(2*est.CPI.HalfWidth, 0.2*fullCPI); dev > limit {
				t.Errorf("%s/%v: sampled CPI %.4f±%.4f biased against full-run %.4f (deviation %.4f > %.4f)",
					name, design, est.CPI.Value, est.CPI.HalfWidth, fullCPI, dev, limit)
			}
		}
	}
	if rate := float64(covered) / float64(cells); rate < 0.85 {
		t.Errorf("only %d/%d (%.0f%%) of full-run values inside the sampled 95%% intervals, want >= 85%%",
			covered, cells, 100*rate)
	} else {
		t.Logf("%d/%d (%.0f%%) of full-run values inside the sampled 95%% intervals", covered, cells, 100*rate)
	}
}
