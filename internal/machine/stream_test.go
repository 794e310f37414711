package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// A machine runs one trace. A source or option that RunSource rejects does
// not use up the run; a completed or cancelled run does, and every later
// RunSource fails without touching the machine's warm state.
func TestRunSourceRunsOnce(t *testing.T) {
	spec := workload.MustGet("streamcluster")
	opts := workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 200}
	cfg := DefaultConfig(2, C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	src := func() trace.Source {
		s, err := workload.NewSource(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	m := New(cfg)
	if _, err := m.RunSource(context.Background(), src(), RunOptions{WarmupFraction: 1.5}); err == nil {
		t.Fatal("out-of-range warm-up fraction accepted")
	}
	want, err := New(cfg).RunSource(context.Background(), src(), DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunSource(context.Background(), src(), DefaultRunOptions())
	if err != nil {
		t.Fatalf("first run after a rejected option: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first run after a rejected option differs from a fresh machine's:\n got %+v\nwant %+v", got, want)
	}
	before := m.Counters()
	if _, err := m.RunSource(context.Background(), src(), DefaultRunOptions()); err == nil {
		t.Fatal("second run on one machine accepted")
	}
	if after := m.Counters(); after != before {
		t.Fatalf("refused run changed the counters: %+v, want %+v", after, before)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := New(cfg)
	if _, err := cancelled.RunSource(ctx, src(), DefaultRunOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := cancelled.RunSource(context.Background(), src(), DefaultRunOptions()); err == nil {
		t.Fatal("run after a cancelled run accepted")
	}
}

// forceParallel raises GOMAXPROCS to at least 2 for the test, so RunSource
// takes its prefetching path even on a one-CPU host.
func forceParallel(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// A generated source, read through the prefetching producers, and its
// materialised copy, read directly from memory, give byte-identical results
// for every design, in full detail and sampled. The stream length is not a
// multiple of the batch size, so the last batch of every thread is short.
func TestPrefetchedRunMatchesMaterialised(t *testing.T) {
	forceParallel(t)
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 3*trace.PrefetchBatch + 7}
	src, err := workload.NewSource(workload.MustGet("facesim"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := trace.WithPageSpan(tr.Source(), trace.PageSpan(src))
	modes := map[string]RunOptions{
		"full":    DefaultRunOptions(),
		"sampled": sampledOpts(sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}),
	}
	for _, design := range Designs() {
		for mode, runOpts := range modes {
			cfg := DefaultConfig(4, design)
			cfg.Scale = 512
			cfg.CoresPerSocket = 2
			var out [2][]byte
			for i, s := range []trace.Source{src, mem} {
				res, err := New(cfg).RunSource(context.Background(), s, runOpts)
				if err != nil {
					t.Fatalf("%s/%s: %v", design, mode, err)
				}
				if out[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("%s/%s: prefetched result differs from the materialised one:\n got %s\nwant %s",
					design, mode, out[0], out[1])
			}
		}
	}
}

// hookSource wraps a source so that the runner's reader of thread calls hook
// once it has read after records; a non-nil error from hook fails the reader
// there. The wrapper hides the page span, so the placement pre-pass opens
// every thread once, in full and unhooked, before the runner opens it again.
type hookSource struct {
	trace.Source
	thread, after int
	hook          func() error
	opened        bool
}

func (s *hookSource) OpenThread(t int) trace.RecordReader {
	rr := s.Source.OpenThread(t)
	if t != s.thread || !s.opened {
		s.opened = s.opened || t == s.thread
		return rr
	}
	return &hookReader{RecordReader: rr, left: s.after, hook: s.hook}
}

type hookReader struct {
	trace.RecordReader
	left int
	hook func() error
	err  error
}

func (r *hookReader) Next() (trace.Record, bool) {
	if r.err != nil {
		return trace.Record{}, false
	}
	if r.left == 0 {
		r.left = -1
		if r.err = r.hook(); r.err != nil {
			return trace.Record{}, false
		}
	}
	r.left--
	return r.RecordReader.Next()
}

func (r *hookReader) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.RecordReader.Err()
}

// A run cancelled while its producers are running, or whose reader fails
// mid-stream, returns the cancellation or the reader's error, in full detail
// and sampled, without hanging; the package's leak check then proves every
// producer was joined.
func TestRunSourceStopsMidRun(t *testing.T) {
	forceParallel(t)
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 50_000}
	cfg := DefaultConfig(4, C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	boom := errors.New("boom")
	for mode, runOpts := range map[string]RunOptions{
		"full":    DefaultRunOptions(),
		"sampled": sampledOpts(sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}),
	} {
		for _, tc := range []struct {
			name string
			want error
		}{{"cancel", context.Canceled}, {"reader error", boom}} {
			src, err := workload.NewSource(workload.MustGet("streamcluster"), opts)
			if err != nil {
				t.Fatal(err)
			}
			// The reader-error run's context is never cancelled, so only
			// RunSource itself can stop the other threads' producers.
			ctx := context.Background()
			hook := func() error { return boom }
			if tc.want == context.Canceled {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				hook = func() error { cancel(); return nil }
			}
			done := make(chan error, 1)
			go func() {
				_, err := New(cfg).RunSource(ctx, &hookSource{Source: src, thread: 3, after: 20_000, hook: hook}, runOpts)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) || strings.Contains(err.Error(), "pre-pass") {
					t.Errorf("%s/%s: err = %v, want %v from the run", mode, tc.name, err, tc.want)
				}
			case <-time.After(time.Minute):
				t.Fatalf("%s/%s: RunSource still running a minute after the stop", mode, tc.name)
			}
		}
	}
}
