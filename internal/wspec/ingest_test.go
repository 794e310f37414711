package wspec

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c3d/internal/machine"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// writeTemp writes a text trace into the test's temp dir and returns its
// path.
func writeTemp(t *testing.T, name, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTextRoundTrip exports a generated workload as text, ingests it back,
// and checks the v2 encodings match byte for byte: WriteText and
// OpenText are exact inverses, including the name directive.
func TestTextRoundTrip(t *testing.T) {
	src, err := workload.NewSource(workload.MustGet("nutch"),
		workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 300})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := WriteText(&text, src); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "nutch.txt", text.String())

	ingested, err := OpenText(path)
	if err != nil {
		t.Fatal(err)
	}
	if ingested.Name() != "nutch" {
		t.Errorf("ingested name = %q, want %q (name directive lost)", ingested.Name(), "nutch")
	}
	var want, got bytes.Buffer
	if err := trace.EncodeSource(&want, src); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeSource(&got, ingested); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("ingested encoding (%d bytes) differs from direct encoding (%d bytes)", got.Len(), want.Len())
	}
}

// hostileTraces are malformed text traces: each must fail OpenText with an
// error containing want.
var hostileTraces = []struct {
	name     string
	contents string
	want     string
}{
	{"empty", "", "no trace records"},
	{"comments only", "# name: ghost\n\n  \n", "no trace records"},
	{"short line", "0 r\n", "got 2 fields"},
	{"long line", "0 r 0x10 4 extra\n", "got 5 fields"},
	{"bad section", "boss r 0x10\n", "bad thread index"},
	{"bad kind", "0 x 0x10\n", "bad access kind"},
	{"bad address", "0 r lots\n", "bad address"},
	{"bad gap", "0 r 0x10 -3\n", "bad gap"},
	{"thread over cap", fmt.Sprintf("%d r 0x10\n", trace.MaxThreads), "exceeds"},
}

// mixedTrace interleaves records from different threads, with hex and
// decimal addresses, comma separators and inline comments.
var mixedTrace = strings.Join([]string{
	"# name: handmade",
	"init w 0x100",
	"1 r 0x200 7",
	"0,read,512",
	"init w 0x140 # touch the second line",
	"1 w 0x208",
	"0 store 0x240 2",
}, "\n")

// TestOpenTextRejectsHostileFiles drives the scanner with malformed traces:
// every defect must surface at OpenText time with the offending line in the
// error, never mid-replay.
func TestOpenTextRejectsHostileFiles(t *testing.T) {
	for _, tc := range hostileTraces {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenText(writeTemp(t, "bad.txt", tc.contents))
			if err == nil {
				t.Fatalf("OpenText accepted hostile file, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestTextSourceShape checks section accounting over mixedTrace.
func TestTextSourceShape(t *testing.T) {
	src, err := OpenText(writeTemp(t, "mix.txt", mixedTrace))
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "handmade" {
		t.Errorf("name = %q, want handmade", src.Name())
	}
	if src.Threads() != 2 {
		t.Fatalf("threads = %d, want 2", src.Threads())
	}
	if src.InitLen() != 2 || src.ThreadLen(0) != 2 || src.ThreadLen(1) != 2 {
		t.Fatalf("section lengths = %d/%d/%d, want 2/2/2", src.InitLen(), src.ThreadLen(0), src.ThreadLen(1))
	}
	r := src.OpenThread(0)
	rec, ok := r.Next()
	if !ok || rec.Kind != trace.Read || uint64(rec.Addr) != 512 {
		t.Fatalf("thread 0 first record = %+v ok=%v, want read of 512", rec, ok)
	}
	rec, ok = r.Next()
	if !ok || rec.Kind != trace.Write || uint64(rec.Addr) != 0x240 || rec.Gap != 2 {
		t.Fatalf("thread 0 second record = %+v ok=%v, want write of 0x240 gap 2", rec, ok)
	}
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Fatalf("thread 0 stream did not end cleanly: err=%v", r.Err())
	}
}

// TestEmptySectionsHoldNoFile checks readers over empty sections (no init
// records, thread holes) never open the file: they end before a last record
// that would close it.
func TestEmptySectionsHoldNoFile(t *testing.T) {
	src, err := OpenText(writeTemp(t, "holes.txt", "2 r 0x10\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []trace.RecordReader{src.OpenInit(), src.OpenThread(0), src.OpenThread(1)} {
		if r.(*textReader).f != nil {
			t.Fatal("reader over an empty section holds the trace file open")
		}
		if _, ok := r.Next(); ok || r.Err() != nil {
			t.Fatalf("empty section yielded a record or error %v", r.Err())
		}
	}
}

// TestIngestedTraceRunsThroughMachine replays an ingested text trace through
// machine.RunSource, which opens every section twice (placement prepass +
// run) — the re-scan readers must survive that.
func TestIngestedTraceRunsThroughMachine(t *testing.T) {
	gen, err := workload.NewSource(workload.MustGet("streamcluster"),
		workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 500})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := WriteText(&text, gen); err != nil {
		t.Fatal(err)
	}
	ingested, err := OpenText(writeTemp(t, "run.txt", text.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(4, machine.C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	want, err := machine.New(cfg).RunSource(context.Background(), gen, machine.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := machine.New(cfg).RunSource(context.Background(), ingested, machine.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ingested run differs from generator run:\n got %+v\nwant %+v", got, want)
	}
}

// TestTextReplayMemoryFlat pins the streaming property: opening a reader and
// pulling a fixed number of records must cost the same number of
// allocations on a 100x-longer file. A reader that materialises its section
// (or the whole file) fails this immediately.
func TestTextReplayMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100x trace file")
	}
	makeTrace := func(records int) *TextSource {
		var b strings.Builder
		for i := 0; i < records; i++ {
			fmt.Fprintf(&b, "%d w 0x%x %d\n", i%4, 0x1000+i*64, i%7)
		}
		src, err := OpenText(writeTemp(t, fmt.Sprintf("n%d.txt", records), b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	const probe = 50
	allocsFor := func(src *TextSource) float64 {
		return testing.AllocsPerRun(5, func() {
			r := src.OpenThread(0)
			for i := 0; i < probe; i++ {
				if _, ok := r.Next(); !ok {
					t.Fatalf("stream ended at record %d: %v", i, r.Err())
				}
			}
		})
	}
	small := allocsFor(makeTrace(2_000))
	big := allocsFor(makeTrace(200_000))
	// The two must be near-identical; the margin only absorbs scanner buffer
	// regrowth. 100x the records with flat allocations means no section is
	// ever resident.
	if big > small*1.5+16 {
		t.Fatalf("allocations scale with file length: %.1f allocs on 2k records vs %.1f on 200k", small, big)
	}
}

// FuzzIngest feeds arbitrary files to OpenText and trace.Materialize. Neither
// may panic, a file OpenText accepts must replay without error, and every
// accepted trace must survive WriteText -> OpenText with identical records
// and name.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(mixedTrace))
	for _, tc := range hostileTraces {
		f.Add([]byte(tc.contents))
	}
	src, err := workload.NewSource(workload.MustGet("nutch"),
		workload.Options{Threads: 2, Scale: 512, AccessesPerThread: 20})
	if err != nil {
		f.Fatal(err)
	}
	var generated bytes.Buffer
	if err := WriteText(&generated, src); err != nil {
		f.Fatal(err)
	}
	f.Add(generated.Bytes())
	// A name holding invalid UTF-8 must round-trip byte for byte.
	f.Add([]byte("#name:\xbd\n0 s 0"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.txt")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenText(in)
		if err != nil {
			return
		}
		want, err := trace.Materialize(src)
		if err != nil {
			t.Fatalf("OpenText accepted the file but replay failed: %v", err)
		}
		var text bytes.Buffer
		if err := WriteText(&text, src); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.txt")
		if err := os.WriteFile(out, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := OpenText(out)
		if err != nil {
			t.Fatalf("re-reading the exported trace: %v", err)
		}
		got, err := trace.Materialize(back)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WriteText -> OpenText changed the trace: name %q -> %q", want.Name, got.Name)
		}
	})
}
