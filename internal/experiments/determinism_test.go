package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"c3d/internal/workload"
)

// TestSweepDeterministicAcrossParallelism is the harness-level determinism
// contract: an experiment serialised to JSON must be byte-identical at
// Parallelism=1 and Parallelism=GOMAXPROCS. The sweep layer guarantees
// ordering and seeding; this test guards the experiment layer against
// reintroducing map-iteration or completion-order dependence.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []byte {
		cfg := testConfig()
		cfg.AccessesPerThread = 2000
		cfg.Parallelism = parallelism
		res, err := Fig6(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Fig6 at parallelism %d: %v", parallelism, err)
		}
		out, err := json.Marshal(res.Table())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("results differ across parallelism levels:\n  serial: %s\nparallel: %s", serial, parallel)
	}
}

// TestSampledSweepDeterministicAcrossParallelism is the sampled half of the
// parallelism contract: a sweep running under a SMARTS sampling spec — FF
// fast path, per-core window schedules, CLT estimator and all — must stay
// byte-identical at Parallelism=1 and Parallelism=GOMAXPROCS, and a repeat
// run must reproduce the bytes exactly. The c3dexp-level twin of this test
// is the CI sample-smoke gate; this one runs in-process so `go test` covers
// it without a built binary.
func TestSampledSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []byte {
		cfg := testConfig()
		cfg.AccessesPerThread = 8000
		cfg.Parallelism = parallelism
		cfg.Sampling = "stretch=2800,warm=30,win=30"
		res, err := Fig6(context.Background(), cfg)
		if err != nil {
			t.Fatalf("sampled Fig6 at parallelism %d: %v", parallelism, err)
		}
		out, err := json.Marshal(res.Table())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sampled results differ across parallelism levels:\n  serial: %s\nparallel: %s", serial, parallel)
	}
	if repeat := run(1); !bytes.Equal(serial, repeat) {
		t.Fatalf("repeated sampled sweep produced different bytes:\n  first: %s\n repeat: %s", serial, repeat)
	}
}

// TestSeedChangesTracesButStaysComparable checks the Seed knob regenerates
// different traces (different absolute numbers are likely) while the same
// seed reproduces identical results.
func TestSeedChangesTracesButStaysComparable(t *testing.T) {
	run := func(seed int64) []byte {
		cfg := testConfig()
		cfg.AccessesPerThread = 2000
		cfg.Workloads = []string{"streamcluster"}
		cfg.Seed = seed
		res, err := TableI(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res.Table())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(11), run(11)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different results:\n%s\n%s", a, b)
	}
}

// TestStreamingMatchesMaterialised is the experiment-level half of the
// streaming contract: quick table1 and fig6 under a zero record budget,
// where every job streams from its generator, must be byte-identical to the
// same campaigns under the default budget, where every trace is replayed
// from the memo.
func TestStreamingMatchesMaterialised(t *testing.T) {
	defer func(old *traceCache) { sharedTraces = old }(sharedTraces)
	run := func(budget int) []byte {
		sharedTraces = newTraceCache(budget)
		var out []byte
		for _, id := range []string{"table1", "fig6"} {
			entry, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := entry.Run(context.Background(), QuickConfig())
			if err != nil {
				t.Fatalf("%s (budget %d): %v", id, budget, err)
			}
			b, err := json.Marshal(res.Table())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	streamed := run(0)
	if n := len(sharedTraces.traces); n != 0 {
		t.Fatalf("a zero budget memoised %d traces", n)
	}
	memoised := run(traceBudget)
	cfg := QuickConfig()
	for _, name := range cfg.workloadNames() {
		opts := workload.Options{Threads: cfg.Threads, Scale: cfg.Scale, AccessesPerThread: cfg.AccessesPerThread}
		if _, ok := sharedTraces.traces[traceKey(workload.MustGet(name), opts)]; !ok {
			t.Errorf("the default budget did not memoise the quick %s trace", name)
		}
	}
	if !bytes.Equal(memoised, streamed) {
		t.Fatalf("streaming changed experiment results:\nmemoised: %s\nstreamed: %s", memoised, streamed)
	}
}

// TestScalingDeterministicAcrossParallelism is the cross-topology
// determinism contract: the scaling experiment sweeps every topology the
// registry can host at each socket count, and its serialised result must be
// byte-identical at Parallelism 1 and 8.
func TestScalingDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []byte {
		cfg := testConfig()
		cfg.AccessesPerThread = 2000
		cfg.Workloads = []string{"streamcluster"}
		cfg.Parallelism = parallelism
		res, err := Scaling(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Scaling at parallelism %d: %v", parallelism, err)
		}
		out, err := json.Marshal(res.Table())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("scaling results differ across parallelism levels:\n  serial: %s\nparallel: %s", serial, parallel)
	}
}
