package workload

import (
	"bytes"
	"reflect"
	"testing"

	"c3d/internal/trace"
)

// The acceptance bar for the streaming generator: for every built-in
// workload, the incremental source materialises to a trace bit-identical to
// Generate's, and the trace survives a chunked encode → decode round trip
// exactly — through both the sequential decoder and the indexed file source.
func TestSourceMatchesGenerateForAllWorkloads(t *testing.T) {
	opts := Options{Threads: 4, Scale: 512, AccessesPerThread: 1500}
	for _, name := range AllNames() {
		spec := MustGet(name)
		want := MustGenerate(spec, opts)

		src, err := NewSource(spec, opts)
		if err != nil {
			t.Fatalf("%s: NewSource: %v", name, err)
		}
		if src.Name() != want.Name || src.Threads() != want.Threads() {
			t.Fatalf("%s: source metadata %q/%d, want %q/%d",
				name, src.Name(), src.Threads(), want.Name, want.Threads())
		}
		if src.InitLen() != want.InitAccesses() {
			t.Errorf("%s: InitLen = %d, want %d", name, src.InitLen(), want.InitAccesses())
		}
		for th := 0; th < src.Threads(); th++ {
			if src.ThreadLen(th) != len(want.Parallel[th]) {
				t.Errorf("%s: ThreadLen(%d) = %d, want %d", name, th, src.ThreadLen(th), len(want.Parallel[th]))
			}
		}
		got, err := trace.Materialize(src)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming and materialised generation differ", name)
			continue
		}

		var buf bytes.Buffer
		if err := trace.EncodeSource(&buf, src); err != nil {
			t.Fatalf("%s: EncodeSource: %v", name, err)
		}
		dec, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Errorf("%s: chunked encode/decode round trip differs from Generate", name)
		}
		fs, err := trace.OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("%s: OpenSource: %v", name, err)
		}
		fromFile, err := trace.Materialize(fs)
		if err != nil {
			t.Fatalf("%s: materialising file source: %v", name, err)
		}
		if !reflect.DeepEqual(fromFile, want) {
			t.Errorf("%s: file-source round trip differs from Generate", name)
		}
	}
}

// Source readers must replay identically: two sequential drains of the same
// thread yield the same records (fresh RNG per reader), independent of any
// other reader's progress.
func TestSourceReplaysDeterministically(t *testing.T) {
	spec := MustGet("fluidanimate")
	src, err := NewSource(spec, Options{Threads: 4, Scale: 512, AccessesPerThread: 500})
	if err != nil {
		t.Fatal(err)
	}
	drain := func(rr trace.RecordReader) []trace.Record {
		var out []trace.Record
		for {
			rec, ok := rr.Next()
			if !ok {
				break
			}
			out = append(out, rec)
		}
		return out
	}
	a := drain(src.OpenThread(2))
	// Interleave: consume part of another thread before replaying thread 2.
	other := src.OpenThread(1)
	other.Next()
	b := drain(src.OpenThread(2))
	if !reflect.DeepEqual(a, b) {
		t.Error("replaying a thread reader produced a different stream")
	}
	if len(a) != 500 {
		t.Errorf("drained %d records, want 500", len(a))
	}
}

// Streaming stats must match the materialised ComputeStats.
func TestSourceStatsMatch(t *testing.T) {
	spec := MustGet("tunkrank")
	opts := Options{Threads: 4, Scale: 512, AccessesPerThread: 2000}
	src, err := NewSource(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ComputeStatsSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := MustGenerate(spec, opts).ComputeStats()
	if got != want {
		t.Errorf("streaming stats %+v\nmaterialised  %+v", got, want)
	}
}
