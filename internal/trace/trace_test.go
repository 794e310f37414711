package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Init: []Record{
			{Kind: Write, Addr: 0x1000, Gap: 3},
			{Kind: Write, Addr: 0x2000, Gap: 1},
		},
		Parallel: [][]Record{
			{
				{Kind: Read, Addr: 0x1000, Gap: 5},
				{Kind: Write, Addr: 0x1040, Gap: 2},
				{Kind: Read, Addr: 0x2000, Gap: 0},
			},
			{
				{Kind: Read, Addr: 0x2000, Gap: 10},
			},
		},
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := sampleTrace()
	if tr.Threads() != 2 {
		t.Errorf("Threads = %d, want 2", tr.Threads())
	}
	if tr.Accesses() != 4 {
		t.Errorf("Accesses = %d, want 4", tr.Accesses())
	}
	if tr.InitAccesses() != 2 {
		t.Errorf("InitAccesses = %d, want 2", tr.InitAccesses())
	}
}

func TestComputeStats(t *testing.T) {
	s := sampleTrace().ComputeStats()
	if s.Reads != 3 || s.Writes != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 3/1", s.Reads, s.Writes)
	}
	if got := s.ReadFraction(); got != 0.75 {
		t.Errorf("ReadFraction = %.2f, want 0.75", got)
	}
	// Pages touched: 0x1000 and 0x2000 -> 2 distinct pages.
	if s.FootprintPages != 2 {
		t.Errorf("FootprintPages = %d, want 2", s.FootprintPages)
	}
	if s.FootprintBytes() != 2*addr.PageBytes {
		t.Errorf("FootprintBytes = %d, want %d", s.FootprintBytes(), 2*addr.PageBytes)
	}
	// Instructions: (5+1)+(2+1)+(0+1)+(10+1) = 21.
	if s.InstructionEstimate != 21 {
		t.Errorf("InstructionEstimate = %d, want 21", s.InstructionEstimate)
	}
}

func TestReadFractionEmpty(t *testing.T) {
	var s Stats
	if s.ReadFraction() != 0 {
		t.Error("ReadFraction of an empty trace should be 0")
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(1 << 20); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := tr.Validate(0x1500); err == nil {
		t.Error("out-of-range address not detected")
	}
	empty := &Trace{Name: "empty"}
	if err := empty.Validate(0); err == nil {
		t.Error("trace without threads should be invalid")
	}
	bad := sampleTrace()
	bad.Parallel[0][0].Kind = Kind(9)
	if err := bad.Validate(0); err == nil {
		t.Error("invalid kind not detected")
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("unexpected Kind names")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatalf("EncodeSource: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage input should be rejected")
	}
	// Correct magic, bad version.
	if _, err := Decode(bytes.NewReader([]byte{'C', '3', 'D', 'T', 99})); err == nil {
		t.Error("unknown version should be rejected")
	}
	// Truncated stream.
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated stream should be rejected")
	}
}

func TestEncodeDecodeLargeRandomTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Name: "random", Parallel: make([][]Record, 4)}
	for i := range tr.Parallel {
		recs := make([]Record, 2000)
		for j := range recs {
			recs[j] = Record{
				Kind: Kind(rng.Intn(2)),
				Addr: addr.Addr(rng.Int63n(1 << 32)),
				Gap:  uint32(rng.Intn(100)),
			}
		}
		tr.Parallel[i] = recs
	}
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("large random trace did not survive the round trip")
	}
}

// Property: any structurally valid trace survives an encode/decode round
// trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(name string, addrs []uint32, gaps []uint16) bool {
		n := len(addrs)
		if len(gaps) < n {
			n = len(gaps)
		}
		if n == 0 {
			return true
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{Kind: Kind(gaps[i] % 2), Addr: addr.Addr(addrs[i]), Gap: uint32(gaps[i])}
		}
		tr := &Trace{Name: name, Parallel: [][]Record{recs}}
		var buf bytes.Buffer
		if err := EncodeSource(&buf, tr.Source()); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
