package machine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"c3d/internal/sample"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// The contract of the streaming runner: for every registry workload,
// RunSource over the incremental generator produces results bit-identical to
// RunSource over the materialised trace, and replaying the same streams from a
// chunked trace file is bit-identical again — in full detail and sampled, so
// fast-forward over every kind of reader warms the same state. Simulated
// stream length dictates memory in none of the three paths' runner — only the
// materialised input itself does.
func TestRunSourceMatchesRun(t *testing.T) {
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 2000}
	modes := map[string]RunOptions{
		"full":    DefaultRunOptions(),
		"sampled": sampledOpts(sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}),
	}
	for _, name := range []string{"streamcluster", "nutch", "mcf"} {
		for _, design := range []Design{Baseline, C3D} {
			for _, mode := range []string{"full", "sampled"} {
				runOpts := modes[mode]
				spec := workload.MustGet(name)
				cfg := DefaultConfig(4, design)
				cfg.Scale = 512
				cfg.CoresPerSocket = 2

				tr := workload.MustGenerate(spec, opts)
				want, err := New(cfg).RunSource(context.Background(), tr.Source(), runOpts)
				if err != nil {
					t.Fatalf("%s/%v/%s: materialised run: %v", name, design, mode, err)
				}

				src, err := workload.NewSource(spec, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := New(cfg).RunSource(context.Background(), src, runOpts)
				if err != nil {
					t.Fatalf("%s/%v/%s: streaming run: %v", name, design, mode, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/%s: streaming result differs from materialised:\n got %+v\nwant %+v",
						name, design, mode, got, want)
				}

				var buf bytes.Buffer
				if err := trace.EncodeSource(&buf, src); err != nil {
					t.Fatal(err)
				}
				fs, err := trace.OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := New(cfg).RunSource(context.Background(), fs, runOpts)
				if err != nil {
					t.Fatalf("%s/%v/%s: file replay run: %v", name, design, mode, err)
				}
				if !reflect.DeepEqual(replayed, want) {
					t.Errorf("%s/%v/%s: file-replay result differs from materialised", name, design, mode)
				}
			}
		}
	}
}

// RunSource rejects traces the machine cannot run and bad run options.
func TestRunSourceValidation(t *testing.T) {
	cfg := DefaultConfig(2, Baseline)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	m := New(cfg)

	empty := (&trace.Trace{Name: "empty"}).Source()
	if _, err := m.RunSource(context.Background(), empty, DefaultRunOptions()); err == nil {
		t.Error("source without threads accepted")
	}

	spec := workload.MustGet("streamcluster")
	src, err := workload.NewSource(spec, workload.Options{Threads: 16, Scale: 512, AccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSource(context.Background(), src, DefaultRunOptions()); err == nil {
		t.Error("more threads than cores accepted")
	}
	src4, err := workload.NewSource(spec, workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSource(context.Background(), src4, RunOptions{WarmupFraction: 1.5}); err == nil {
		t.Error("out-of-range warm-up fraction accepted")
	}
}

// TestRunSourceCancelled checks a cancelled context aborts the run with
// ctx's error instead of simulating the whole stream.
func TestRunSourceCancelled(t *testing.T) {
	spec := workload.MustGet("streamcluster")
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 50_000}
	cfg := DefaultConfig(4, C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := workload.NewSource(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg).RunSource(ctx, src, DefaultRunOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
