package workload

import (
	"reflect"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/trace"
)

// small options keep generation fast in tests.
func testOptions() Options {
	return Options{Threads: 4, Scale: DefaultScale, AccessesPerThread: 3000}
}

func TestRegistryIsValid(t *testing.T) {
	if len(AllNames()) != 10 {
		t.Fatalf("built-in table has %d workloads, want 10 (9 parallel + mcf)", len(AllNames()))
	}
	if len(Names()) != 9 {
		t.Fatalf("main suite has %d workloads, want 9", len(Names()))
	}
	for _, name := range AllNames() {
		spec := MustGet(name)
		if err := spec.Validate(); err != nil {
			t.Errorf("workload %s: invalid spec: %v", name, err)
		}
	}
	// The paper's workload set, in its order.
	want := []string{"facesim", "streamcluster", "freqmine", "fluidanimate",
		"canneal", "tunkrank", "nutch", "cassandra", "classification"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestGetUnknownWorkload(t *testing.T) {
	if _, err := Get("doom3"); err == nil {
		t.Error("unknown workload should return an error")
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet of an unknown workload should panic")
		}
	}()
	MustGet("doom3")
}

func TestSpecValidateRejectsBadValues(t *testing.T) {
	base := MustGet("facesim")
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.SharedFraction = 1.5 },
		func(s *Spec) { s.CommFraction = -0.1 },
		func(s *Spec) { s.ReadFraction = 2 },
		func(s *Spec) { s.LocalitySkew = 0.5 },
		func(s *Spec) { s.SharedBytes = 0; s.PrivateBytesPerThread = 0 },
		func(s *Spec) { s.AccessesPerThread = 0 },
		func(s *Spec) { s.DefaultThreads = 0 },
		// A negative mean gap would panic rand.Intn(2*MeanGap+1) inside the
		// generator; it must be rejected up front.
		func(s *Spec) { s.MeanGap = -1 },
		func(s *Spec) { s.SpatialRun = -3 },
		// Comm+Shared > 1 silently starves the private-region branch.
		func(s *Spec) { s.CommFraction = 0.6; s.SharedFraction = 0.6 },
	}
	for i, mutate := range cases {
		spec := base
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := MustGet("streamcluster")
	a := MustGenerate(spec, testOptions())
	b := MustGenerate(spec, testOptions())
	if !reflect.DeepEqual(a, b) {
		t.Error("two generations with identical options differ")
	}
	// A different seed offset produces a different trace.
	opts := testOptions()
	opts.SeedOffset = 99
	c := MustGenerate(spec, opts)
	if reflect.DeepEqual(a, c) {
		t.Error("different seed offsets produced identical traces")
	}
}

func TestGenerateRespectsOptions(t *testing.T) {
	spec := MustGet("canneal")
	opts := testOptions()
	tr := MustGenerate(spec, opts)
	if tr.Threads() != opts.Threads {
		t.Errorf("Threads = %d, want %d", tr.Threads(), opts.Threads)
	}
	for th, recs := range tr.Parallel {
		if len(recs) != opts.AccessesPerThread {
			t.Errorf("thread %d has %d accesses, want %d", th, len(recs), opts.AccessesPerThread)
		}
	}
	if tr.InitAccesses() == 0 {
		t.Error("expected a non-empty init section")
	}
	if err := tr.Validate(0); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
}

func TestSingleThreadedWorkloadIgnoresThreadOverride(t *testing.T) {
	spec := MustGet("mcf")
	opts := testOptions()
	opts.Threads = 16
	tr := MustGenerate(spec, opts)
	if tr.Threads() != 1 {
		t.Errorf("mcf generated %d threads, want 1", tr.Threads())
	}
}

func TestReadFractionRoughlyMatchesSpec(t *testing.T) {
	spec := MustGet("cassandra")
	opts := testOptions()
	opts.AccessesPerThread = 20000
	tr := MustGenerate(spec, opts)
	stats := tr.ComputeStats()
	got := stats.ReadFraction()
	if diff := got - spec.ReadFraction; diff < -0.05 || diff > 0.05 {
		t.Errorf("generated read fraction %.3f, spec %.3f", got, spec.ReadFraction)
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	spec := MustGet("facesim")
	opts := testOptions()
	l := BuildLayout(spec, opts)
	if l.SharedBytes == 0 || l.PrivateBytes == 0 || l.MailboxBytes == 0 {
		t.Fatalf("layout has empty regions: %+v", l)
	}
	// Shared ends where the mailboxes begin, mailboxes end where private
	// regions begin.
	if addr.Addr(l.SharedBytes) != l.MailboxBase {
		t.Error("shared region overlaps the mailboxes")
	}
	wantPrivBase := l.MailboxBase + addr.Addr(uint64(l.Threads)*l.MailboxBytes)
	if l.PrivateBase != wantPrivBase {
		t.Errorf("PrivateBase = %v, want %v", l.PrivateBase, wantPrivBase)
	}
	// Per-thread regions are disjoint.
	b0, s0 := l.PrivateRegion(0)
	b1, _ := l.PrivateRegion(1)
	if b0+addr.Addr(s0) != b1 {
		t.Error("private regions of threads 0 and 1 are not adjacent/disjoint")
	}
	if l.TotalBytes() != l.SharedBytes+uint64(l.Threads)*(l.MailboxBytes+l.PrivateBytes) {
		t.Error("TotalBytes inconsistent with the region sizes")
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	spec := MustGet("freqmine")
	big := BuildLayout(spec, Options{Threads: 4, Scale: 1})
	small := BuildLayout(spec, Options{Threads: 4, Scale: 64})
	if small.TotalBytes() >= big.TotalBytes() {
		t.Errorf("scale 64 footprint (%d) not smaller than scale 1 (%d)",
			small.TotalBytes(), big.TotalBytes())
	}
	ratio := float64(big.TotalBytes()) / float64(small.TotalBytes())
	if ratio < 32 || ratio > 128 {
		t.Errorf("scaling ratio %.1f, want roughly 64", ratio)
	}
}

func TestScaleNeverDropsRegionBelowOnePage(t *testing.T) {
	spec := MustGet("cassandra") // has a small 4 MiB mailbox region
	l := BuildLayout(spec, Options{Threads: 4, Scale: 4096})
	if l.MailboxBytes < addr.PageBytes {
		t.Errorf("mailbox region scaled to %d bytes, want at least one page", l.MailboxBytes)
	}
	if l.MailboxBytes%addr.PageBytes != 0 {
		t.Error("regions must stay page-aligned after scaling")
	}
}

func TestCommunicationCreatesCrossThreadSharing(t *testing.T) {
	// For a communication-heavy workload, blocks written by one thread must
	// also be read by its neighbour — that is what creates the dirty-sharing
	// pathology the paper studies.
	spec := MustGet("nutch")
	opts := testOptions()
	opts.AccessesPerThread = 10000
	tr := MustGenerate(spec, opts)
	writtenBy0 := map[addr.Block]bool{}
	for _, r := range tr.Parallel[0] {
		if r.Kind == trace.Write {
			writtenBy0[addr.BlockOf(r.Addr)] = true
		}
	}
	// Thread 3's neighbour is thread 0 (ring of 4): it reads thread 0's
	// mailbox.
	shared := 0
	reader := tr.Parallel[opts.Threads-1]
	for _, r := range reader {
		if r.Kind == trace.Read && writtenBy0[addr.BlockOf(r.Addr)] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no cross-thread read-after-write sharing generated for a communication-heavy workload")
	}
}

func TestStreamclusterFitsInDRAMCacheScaledDown(t *testing.T) {
	// streamcluster's shared working set must fit in one socket's scaled
	// DRAM cache (16 MiB at the default scale), because it is the paper's
	// showcase for a fully DRAM-cache-resident workload.
	l := BuildLayout(MustGet("streamcluster"), Options{Threads: 32, Scale: DefaultScale})
	dramCache := uint64(1<<30) / DefaultScale
	if l.SharedBytes > dramCache {
		t.Errorf("streamcluster shared region (%d bytes) exceeds the scaled DRAM cache (%d bytes)",
			l.SharedBytes, dramCache)
	}
	// nutch must not fit — it is the counter-example workload.
	ln := BuildLayout(MustGet("nutch"), Options{Threads: 32, Scale: DefaultScale})
	if ln.SharedBytes <= dramCache {
		t.Errorf("nutch shared region (%d bytes) should exceed the scaled DRAM cache (%d bytes)",
			ln.SharedBytes, dramCache)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		Parallel: "parsec", Server: "server", Graph: "graph", SingleThreaded: "single-threaded",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	bad := MustGet("facesim")
	bad.ReadFraction = 7
	if _, err := Generate(bad, testOptions()); err == nil {
		t.Error("Generate should reject an invalid spec")
	}
}
