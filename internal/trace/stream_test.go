package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c3d/internal/addr"
)

// chunkyTrace builds a trace long enough that every thread spans several v2
// chunks, with addresses that exercise negative deltas and >32-bit values.
func chunkyTrace(recordsPerThread int) *Trace {
	tr := &Trace{Name: "chunky", Parallel: make([][]Record, 3)}
	for i := 0; i < 100; i++ {
		tr.Init = append(tr.Init, Record{Kind: Write, Addr: addr.Addr(i * 4096), Gap: uint32(i)})
	}
	for th := range tr.Parallel {
		a := uint64(th+1) << 33 // beyond 32 bits
		for i := 0; i < recordsPerThread; i++ {
			if i%3 == 0 {
				a -= 64
			} else {
				a += 4096
			}
			tr.Parallel[th] = append(tr.Parallel[th], Record{
				Kind: Kind(i % 2),
				Addr: addr.Addr(a),
				Gap:  uint32(i % 97),
			})
		}
	}
	return tr
}

func TestSourceAdapterRoundTrip(t *testing.T) {
	tr := sampleTrace()
	src := tr.Source()
	if src.Name() != tr.Name || src.Threads() != tr.Threads() {
		t.Fatalf("adapter metadata mismatch: %q/%d", src.Name(), src.Threads())
	}
	if src.InitLen() != len(tr.Init) || src.ThreadLen(0) != len(tr.Parallel[0]) {
		t.Fatal("adapter length mismatch")
	}
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("Source→Materialize round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestSourceReadersAreIndependent(t *testing.T) {
	tr := sampleTrace()
	src := tr.Source()
	a, b := src.OpenThread(0), src.OpenThread(0)
	ra, _ := a.Next()
	// Reading from a must not advance b.
	rb, _ := b.Next()
	if ra != rb {
		t.Errorf("independent readers diverged: %+v vs %+v", ra, rb)
	}
}

func TestEncodeSourceDecodeRoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), chunkyTrace(3*chunkRecords + 7)} {
		var buf bytes.Buffer
		if err := EncodeSource(&buf, tr.Source()); err != nil {
			t.Fatalf("%s: EncodeSource: %v", tr.Name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: Decode: %v", tr.Name, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("%s: v2 sequential round trip mismatch", tr.Name)
		}
	}
}

func TestOpenSourceRoundTrip(t *testing.T) {
	tr := chunkyTrace(2*chunkRecords + 11)
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Name() != tr.Name || fs.Threads() != tr.Threads() {
		t.Fatalf("file source metadata mismatch: %q/%d", fs.Name(), fs.Threads())
	}
	if fs.InitLen() != len(tr.Init) {
		t.Errorf("InitLen = %d, want %d", fs.InitLen(), len(tr.Init))
	}
	for th := range tr.Parallel {
		if fs.ThreadLen(th) != len(tr.Parallel[th]) {
			t.Errorf("ThreadLen(%d) = %d, want %d", th, fs.ThreadLen(th), len(tr.Parallel[th]))
		}
	}
	got, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("v2 file source round trip mismatch")
	}
	// A second replay of the same section must yield the same stream.
	again, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Error("file source is not replayable")
	}
}

// OpenSource reads the frozen v1 fixture whole and must yield what Decode
// does.
func TestOpenSourceLegacyVersion(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden-v1.c3dt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("OpenSource of the v1 fixture: %v", err)
	}
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OpenSource of the v1 fixture yields\n%+v\nDecode yields\n%+v", got, want)
	}
}

func TestComputeStatsSourceMatchesMaterialised(t *testing.T) {
	tr := chunkyTrace(5000)
	want := tr.ComputeStats()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeStatsSource(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streaming stats differ:\n got %+v\nwant %+v", got, want)
	}
}

// --- corrupt and hostile input handling ---

func appendUvarint(b []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutUvarint(buf[:], v)]...)
}

// v1Header builds magic+version+name for a hand-crafted v1 stream.
func header(version byte, name string) []byte {
	b := append([]byte{}, magic[:]...)
	b = append(b, version)
	b = appendUvarint(b, uint64(len(name)))
	return append(b, name...)
}

func TestDecodeRejectsHugeNameLength(t *testing.T) {
	b := append([]byte{}, magic[:]...)
	b = append(b, formatVersion1)
	b = appendUvarint(b, 1<<40) // claims a terabyte-scale name
	if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "name length") {
		t.Errorf("huge name length not rejected: %v", err)
	}
}

func TestDecodeRejectsHugeThreadCount(t *testing.T) {
	b := header(formatVersion1, "x")
	b = appendUvarint(b, 0)     // empty init
	b = appendUvarint(b, 1<<40) // absurd thread count
	if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "thread count") {
		t.Errorf("huge v1 thread count not rejected: %v", err)
	}
	b = header(formatVersion2, "x")
	b = appendUvarint(b, 1<<40)
	if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "thread count") {
		t.Errorf("huge v2 thread count not rejected: %v", err)
	}
	if _, err := OpenSource(bytes.NewReader(b), int64(len(b))); err == nil || !strings.Contains(err.Error(), "thread count") {
		t.Errorf("huge v2 thread count not rejected by OpenSource: %v", err)
	}
}

// A v1 section claiming billions of records but containing none must fail
// with a truncation error quickly instead of attempting a huge allocation.
func TestDecodeLyingRecordCount(t *testing.T) {
	b := header(formatVersion1, "liar")
	b = appendUvarint(b, 1<<33) // init "contains" 8G records
	_, err := Decode(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "init section") {
		t.Errorf("lying record count not rejected usefully: %v", err)
	}
}

func TestDecodeRejectsBadChunks(t *testing.T) {
	// base builds the v2 header for two threads with the given declared
	// per-section totals (init, thread 0, thread 1).
	base := func(lens ...uint64) []byte {
		b := header(formatVersion2, "x")
		b = appendUvarint(b, 2)
		for _, l := range lens {
			b = appendUvarint(b, l)
		}
		return b
	}
	cases := []struct {
		name string
		body func([]byte) []byte
		lens []uint64
		want string
	}{
		{"section out of range", func(b []byte) []byte {
			return appendUvarint(b, 9) // only sections 0..2 are valid
		}, []uint64{64, 64, 64}, "section 9 out of range"},
		{"zero record count", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			return appendUvarint(b, 0)
		}, []uint64{64, 64, 64}, "record count"},
		{"oversized record count", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			return appendUvarint(b, maxChunkRecords+1)
		}, []uint64{64, 64, 64}, "record count"},
		{"chunk exceeds declared total", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 3) // 3 records where the header declares 2
			b = appendUvarint(b, 6)
			return append(b, 0, 0, 0, 0, 0, 0)
		}, []uint64{0, 2, 0}, "exceeds its declared"},
		{"implausible payload length", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 10) // 10 records need >= 20 bytes
			return appendUvarint(b, 5)
		}, []uint64{64, 64, 64}, "implausible"},
		{"truncated payload", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 2)
			return append(b, 0x00) // only 1 of 2 payload bytes
		}, []uint64{64, 64, 64}, "payload"},
		{"trailing bytes in chunk", func(b []byte) []byte {
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 4)
			return append(b, 0x00, 0x00, 0x00, 0x00) // 1 record, 2 junk bytes
		}, []uint64{0, 1, 0}, "trailing"},
	}
	for _, tc := range cases {
		b := tc.body(base(tc.lens...))
		if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode error %v, want substring %q", tc.name, err, tc.want)
		}
		// OpenSource validates structure at open time; payload-content errors
		// (trailing bytes) surface when the chunk is decoded by a reader.
		fs, err := OpenSource(bytes.NewReader(b), int64(len(b)))
		if err == nil {
			if _, err = Materialize(fs); err == nil {
				t.Errorf("%s: file source accepted corrupt chunk", tc.name)
			}
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: OpenSource error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestOpenSourceRejectsTruncatedFile(t *testing.T) {
	tr := chunkyTrace(2000)
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() / 3
	if _, err := OpenSource(bytes.NewReader(buf.Bytes()[:cut]), int64(cut)); err == nil {
		t.Error("truncated v2 file accepted by OpenSource")
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
		t.Error("truncated v2 file accepted by Decode")
	}
}

// Chunks are EOF-terminated, so the dangerous cut is the one that lands
// exactly on a chunk boundary: without the header's per-section totals the
// rest of the file would silently vanish. Both decoders must reject it.
func TestTruncationAtChunkBoundaryDetected(t *testing.T) {
	tr := chunkyTrace(2000)
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// Cut immediately after thread 0's first chunk payload — a clean chunk
	// boundary in the middle of the file.
	c := fs.(*fileSource).chunks[1][0]
	cut := c.off + int64(c.byteLen)
	data := buf.Bytes()[:cut]
	if _, err := OpenSource(bytes.NewReader(data), int64(len(data))); err == nil ||
		!strings.Contains(err.Error(), "declares") {
		t.Errorf("boundary-truncated file not rejected by OpenSource: %v", err)
	}
	if _, err := Decode(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "declares") {
		t.Errorf("boundary-truncated file not rejected by Decode: %v", err)
	}
}

func TestScanReportsHeaderAndOrder(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	var threadsSeen []int
	h, err := Scan(&buf, func(thread int, rec Record) error {
		threadsSeen = append(threadsSeen, thread)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "sample" || h.Threads != 2 || h.Version != formatVersion2 {
		t.Errorf("header = %+v", h)
	}
	want := []int{-1, -1, 0, 0, 0, 1} // init, init, thread 0 ×3, thread 1
	if !reflect.DeepEqual(threadsSeen, want) {
		t.Errorf("scan order = %v, want %v", threadsSeen, want)
	}
}

// A scan callback error must abort the scan and propagate verbatim.
func TestScanPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSource(&buf, sampleTrace().Source()); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	if _, err := Scan(&buf, func(int, Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("callback error not propagated: %v", err)
	}
}
