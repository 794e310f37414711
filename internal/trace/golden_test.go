package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden v2 trace fixture (the v1 fixture is frozen)")

// goldenTrace is a small fixed trace covering the format's edge cases:
// negative address deltas, addresses beyond 32 bits, large gaps, and an empty
// thread between non-empty ones.
func goldenTrace() *Trace {
	return &Trace{
		Name: "golden",
		Init: []Record{
			{Kind: Write, Addr: 0x1000, Gap: 3},
			{Kind: Write, Addr: 0x2000, Gap: 1},
		},
		Parallel: [][]Record{
			{
				{Kind: Read, Addr: 0x7_0000_0040, Gap: 5},
				{Kind: Write, Addr: 0x40, Gap: 2}, // large negative delta
				{Kind: Read, Addr: 0x7fff_ffff_f000, Gap: 1_000_000},
			},
			nil, // an empty thread must survive both formats
			{
				{Kind: Read, Addr: 0x2000, Gap: 10},
				{Kind: Write, Addr: 0x1fc0, Gap: 0},
			},
		},
	}
}

// TestGoldenFixtures pins the exact bytes of both on-disk formats. The v2
// fixture is what EncodeSource writes: a codec change that alters the
// encoding breaks this test, which is the point — the fixture makes format
// changes deliberate (bump the version and regenerate with -update rather
// than silently breaking old files). Nothing writes v1 any more, so its
// fixture is frozen: it is only decoded, and -update leaves it alone.
func TestGoldenFixtures(t *testing.T) {
	var v2 bytes.Buffer
	if err := EncodeSource(&v2, goldenTrace().Source()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "golden-v2.c3dt"), v2.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"golden-v1.c3dt", "golden-v2.c3dt"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if file == "golden-v2.c3dt" && !bytes.Equal(v2.Bytes(), data) {
				t.Errorf("encoding of the golden trace changed (%d bytes, fixture %d bytes); "+
					"if intentional, bump the format version and regenerate with -update",
					v2.Len(), len(data))
			}
			got, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decoding fixture: %v", err)
			}
			if !reflect.DeepEqual(got, goldenTrace()) {
				t.Errorf("fixture decodes to\n%+v\nwant\n%+v", got, goldenTrace())
			}
		})
	}
}

// The v2 fixture must also open as a streaming source and yield the same
// records chunk by chunk.
func TestGoldenV2OpensAsSource(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden-v2.c3dt"))
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	fs, err := OpenSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenTrace()) {
		t.Error("golden v2 fixture mismatch through the streaming source")
	}
	if fs.ThreadLen(1) != 0 {
		t.Errorf("empty thread reported %d records", fs.ThreadLen(1))
	}
}
