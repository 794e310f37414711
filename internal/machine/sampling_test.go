package machine

import (
	"context"
	"reflect"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/sample"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

func sampledOpts(spec sample.Spec) RunOptions {
	opts := DefaultRunOptions()
	opts.Sampling = spec
	return opts
}

// A sampled run must produce a Sampling section with at least two windows,
// exact totals, and identical results on every repetition — the machine-level
// half of the byte-identical-across-parallelism guarantee.
func TestSampledRunDeterministicAndAccounted(t *testing.T) {
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 4000}
	spec := sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}
	for _, design := range []Design{Baseline, C3D} {
		cfg := DefaultConfig(4, design)
		cfg.Scale = 512
		cfg.CoresPerSocket = 2
		tr := workload.MustGenerate(workload.MustGet("streamcluster"), opts)

		run := func() RunResult {
			res, err := New(cfg).RunSource(context.Background(), tr.Source(), sampledOpts(spec))
			if err != nil {
				t.Fatalf("%v: sampled run: %v", design, err)
			}
			return res
		}
		res := run()
		if res.Sampling == nil {
			t.Fatalf("%v: sampled run has no Sampling section", design)
		}
		s := res.Sampling
		if s.Windows < sample.MinWindows {
			t.Errorf("%v: %d windows, want >= %d", design, s.Windows, sample.MinWindows)
		}
		if s.Spec != spec.String() {
			t.Errorf("%v: spec %q, want %q", design, s.Spec, spec.String())
		}
		wantTotal := uint64(opts.Threads * opts.AccessesPerThread)
		if s.TotalAccesses != wantTotal {
			t.Errorf("%v: TotalAccesses = %d, want %d", design, s.TotalAccesses, wantTotal)
		}
		if s.SampledAccesses == 0 || s.SampledAccesses > s.DetailedAccesses {
			t.Errorf("%v: sampled %d / detailed %d accesses inconsistent", design, s.SampledAccesses, s.DetailedAccesses)
		}
		if s.DetailedAccesses >= s.TotalAccesses/2 {
			t.Errorf("%v: detailed accesses %d not a small fraction of %d", design, s.DetailedAccesses, s.TotalAccesses)
		}
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Errorf("%v: extrapolated cycles/instructions zero: %+v", design, res)
		}
		// Extrapolated loads+stores must land on the exact total (the scale
		// factor is derived from it).
		got := res.Counters.Loads + res.Counters.Stores
		if diff := int64(got) - int64(wantTotal); diff < -1 || diff > 1 {
			t.Errorf("%v: extrapolated accesses %d, want ~%d", design, got, wantTotal)
		}
		if res2 := run(); !reflect.DeepEqual(res, res2) {
			t.Errorf("%v: repeated sampled runs differ:\n  %+v\n  %+v", design, res, res2)
		}
	}
}

// The seed moves the initial phase, so different seeds should generally
// sample different stream positions (and a fixed seed must reproduce).
func TestSampledRunSeedChangesSchedule(t *testing.T) {
	opts := workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 3000}
	cfg := DefaultConfig(2, C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	tr := workload.MustGenerate(workload.MustGet("mcf"), opts)

	run := func(seed int64) RunResult {
		res, err := New(cfg).RunSource(context.Background(), tr.Source(),
			sampledOpts(sample.Spec{Stretch: 500, Warm: 40, Window: 50, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if reflect.DeepEqual(a, b) {
		// Not strictly impossible, but with distinct phases it would mean the
		// sampled estimates are insensitive to the schedule — worth failing.
		t.Errorf("seeds 1 and 2 produced identical sampled results")
	}
}

// Streams shorter than two units must fail loudly rather than report
// intervals that do not exist.
func TestSampledRunTooShortStream(t *testing.T) {
	opts := workload.Options{Threads: 2, Scale: 512, AccessesPerThread: 100}
	cfg := DefaultConfig(2, Baseline)
	cfg.Scale = 512
	cfg.CoresPerSocket = 1
	tr := workload.MustGenerate(workload.MustGet("streamcluster"), opts)
	_, err := New(cfg).RunSource(context.Background(), tr.Source(),
		sampledOpts(sample.Spec{Stretch: 5000, Warm: 100, Window: 100}))
	if err == nil {
		t.Fatal("sampled run over a too-short stream succeeded")
	}
}

// An invalid spec must be rejected before any simulation happens.
func TestSampledRunSpecValidation(t *testing.T) {
	cfg := DefaultConfig(2, Baseline)
	cfg.Scale = 512
	cfg.CoresPerSocket = 1
	tr := workload.MustGenerate(workload.MustGet("streamcluster"),
		workload.Options{Threads: 2, Scale: 512, AccessesPerThread: 100})
	_, err := New(cfg).RunSource(context.Background(), tr.Source(),
		sampledOpts(sample.Spec{Stretch: -1, Window: 10}))
	if err == nil {
		t.Fatal("invalid sampling spec accepted")
	}
}

// asymTrace builds an ingested-style trace with heavily skewed thread
// lengths: thread 0 has only a few records, thread 1 thousands.
func asymTrace(short, long int) *trace.Trace {
	mk := func(n int, stride uint64) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			kind := trace.Read
			if i%5 == 4 {
				kind = trace.Write
			}
			recs[i] = trace.Record{Kind: kind, Addr: addr.Addr(uint64(i) * stride % (1 << 20)), Gap: 3}
		}
		return recs
	}
	return &trace.Trace{
		Name:     "asym",
		Init:     mk(64, 64),
		Parallel: [][]trace.Record{mk(short, 64), mk(long, 192)},
	}
}

// Regression test for warm-up sizing on skewed traces: the warm-up budget is
// a per-thread fraction, so a short thread must keep a measured region even
// when another thread is orders of magnitude longer. (The old sizing used
// frac*maxLen for every thread, which consumed short threads entirely during
// warm-up.)
func TestWarmupSizedPerThreadOnSkewedTrace(t *testing.T) {
	const short, long = 40, 4000
	cfg := DefaultConfig(2, Baseline)
	cfg.Scale = 512
	cfg.CoresPerSocket = 1
	res, err := New(cfg).RunSource(context.Background(), asymTrace(short, long).Source(), RunOptions{WarmupFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("want 2 per-core stats, got %d", len(res.PerCore))
	}
	gotShort := res.PerCore[0].Loads + res.PerCore[0].Stores
	wantShort := uint64(short - short/4)
	if gotShort != wantShort {
		t.Errorf("short thread measured %d accesses, want %d (over-warmed)", gotShort, wantShort)
	}
	gotLong := res.PerCore[1].Loads + res.PerCore[1].Stores
	if wantLong := uint64(long - long/4); gotLong != wantLong {
		t.Errorf("long thread measured %d accesses, want %d", gotLong, wantLong)
	}
}
