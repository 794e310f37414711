package machine

import (
	"context"
	"reflect"
	"testing"

	"c3d/internal/numa"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// Integration tests: run small synthetic workloads through complete machines
// and check that the qualitative relationships the paper reports hold.

// cacheFriendlySpec is a workload whose working set exceeds the scaled LLC
// (256 KiB/socket) but fits comfortably in the scaled DRAM cache
// (16 MiB/socket): the situation where private DRAM caches shine.
func cacheFriendlySpec() workload.Spec {
	return workload.Spec{
		Name:                  "test-cachefriendly",
		Class:                 workload.Parallel,
		SharedBytes:           64 * mib, // 1 MiB at scale 64: 4x the LLC, far below the DRAM cache
		PrivateBytesPerThread: 4 * mib,
		MailboxBytesPerThread: 0,
		SharedFraction:        0.9,
		CommFraction:          0,
		ReadFraction:          0.85,
		LocalitySkew:          2.5,
		SpatialRun:            6,
		MeanGap:               4,
		AccessesPerThread:     20_000,
		InitFraction:          0.2,
		DefaultThreads:        8,
		PreferredPolicy:       numa.Interleave,
		Seed:                  4242,
	}
}

// communicationHeavySpec produces intense producer/consumer sharing through
// buffers larger than the LLC — the pattern that exposes the dirty-cache
// pathology in the snoopy and full-dir designs.
func communicationHeavySpec() workload.Spec {
	return workload.Spec{
		Name:                  "test-comm",
		Class:                 workload.Parallel,
		SharedBytes:           64 * mib,
		PrivateBytesPerThread: 2 * mib,
		MailboxBytesPerThread: 48 * mib, // 768 KiB at scale 64 > 256 KiB LLC
		SharedFraction:        0.5,
		CommFraction:          0.35,
		ReadFraction:          0.7,
		LocalitySkew:          2.5,
		SpatialRun:            6,
		MeanGap:               4,
		AccessesPerThread:     16_000,
		InitFraction:          0.2,
		DefaultThreads:        8,
		PreferredPolicy:       numa.Interleave,
		Seed:                  777,
	}
}

func testTrace(t *testing.T, spec workload.Spec, threads int) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(spec, workload.Options{Threads: threads, Scale: 64})
	if err != nil {
		t.Fatalf("generating workload: %v", err)
	}
	return tr
}

func runDesign(t *testing.T, design Design, tr *trace.Trace) RunResult {
	t.Helper()
	cfg := testConfig(design)
	m := New(cfg)
	res, err := m.RunSource(context.Background(), tr.Source(), DefaultRunOptions())
	if err != nil {
		t.Fatalf("running %v: %v", design, err)
	}
	return res
}

func TestC3DOutperformsBaselineOnCacheFriendlyWorkload(t *testing.T) {
	tr := testTrace(t, cacheFriendlySpec(), 8)
	base := runDesign(t, Baseline, tr)
	c3d := runDesign(t, C3D, tr)

	if c3d.Cycles >= base.Cycles {
		t.Errorf("C3D (%d cycles) should beat the baseline (%d cycles) when the working set fits the DRAM cache",
			c3d.Cycles, base.Cycles)
	}
	if c3d.Counters.RemoteMemReads >= base.Counters.RemoteMemReads {
		t.Errorf("C3D remote memory reads (%d) should be below the baseline's (%d)",
			c3d.Counters.RemoteMemReads, base.Counters.RemoteMemReads)
	}
	if c3d.InterSocketBytes >= base.InterSocketBytes {
		t.Errorf("C3D inter-socket traffic (%d B) should be below the baseline's (%d B)",
			c3d.InterSocketBytes, base.InterSocketBytes)
	}
	if c3d.DRAMCacheHitRate <= 0.3 {
		t.Errorf("DRAM cache hit rate %.2f is too low for a cache-friendly workload", c3d.DRAMCacheHitRate)
	}
	// Write traffic to memory is not reduced by the write-through policy
	// (Fig. 8: "no reduction (but also no increase) in write traffic"). A
	// small difference is expected because the baseline's sparse directory
	// recalls force some extra write-backs.
	if float64(c3d.Counters.MemWrites) < 0.85*float64(base.Counters.MemWrites) {
		t.Errorf("C3D memory writes (%d) should stay close to the baseline's (%d)",
			c3d.Counters.MemWrites, base.Counters.MemWrites)
	}
}

func TestSnoopySuffersOnCommunicationHeavyWorkload(t *testing.T) {
	tr := testTrace(t, communicationHeavySpec(), 8)
	base := runDesign(t, Baseline, tr)
	snoopy := runDesign(t, Snoopy, tr)
	c3d := runDesign(t, C3D, tr)

	// The snoopy design exposes remote DRAM cache probes on every miss; C3D
	// never probes a remote DRAM cache on reads.
	if snoopy.Counters.RemoteDRAMProbes == 0 {
		t.Error("snoopy should probe remote DRAM caches")
	}
	if c3d.Counters.RemoteDRAMProbes != 0 {
		t.Error("C3D must never probe remote DRAM caches")
	}
	// C3D must outperform snoopy on communication-heavy work (Fig. 6 shows
	// snoopy slowing down most workloads while C3D gains).
	if c3d.Cycles >= snoopy.Cycles {
		t.Errorf("C3D (%d cycles) should beat snoopy (%d cycles) on communication-heavy work",
			c3d.Cycles, snoopy.Cycles)
	}
	// And C3D should not lose to the baseline even here.
	if float64(c3d.Cycles) > 1.05*float64(base.Cycles) {
		t.Errorf("C3D (%d cycles) should not fall more than 5%% behind the baseline (%d cycles)",
			c3d.Cycles, base.Cycles)
	}
}

func TestFullDirPaysForDirtyRemoteHits(t *testing.T) {
	tr := testTrace(t, communicationHeavySpec(), 8)
	fullDir := runDesign(t, FullDir, tr)
	c3d := runDesign(t, C3D, tr)
	// The full directory forwards reads of dirty blocks to the owning
	// socket's DRAM cache (slow remote hits); C3D's clean caches avoid that
	// entirely, so it should not be slower.
	if fullDir.Counters.RemoteDRAMProbes == 0 {
		t.Error("full-dir should have fetched dirty blocks from remote DRAM caches")
	}
	if c3d.Cycles > fullDir.Cycles {
		t.Errorf("C3D (%d cycles) should not be slower than full-dir (%d cycles) on communication-heavy work",
			c3d.Cycles, fullDir.Cycles)
	}
}

func TestSharedDesignFiltersMemoryButNotInterconnect(t *testing.T) {
	tr := testTrace(t, cacheFriendlySpec(), 8)
	base := runDesign(t, Baseline, tr)
	shared := runDesign(t, SharedDRAM, tr)
	c3d := runDesign(t, C3D, tr)

	// The shared organisation reduces memory accesses...
	if shared.Counters.MemReads >= base.Counters.MemReads {
		t.Errorf("shared DRAM cache memory reads (%d) should be below the baseline's (%d)",
			shared.Counters.MemReads, base.Counters.MemReads)
	}
	// ...but cannot reduce off-socket traffic the way private caches do
	// (§II-C): C3D must generate meaningfully less interconnect traffic.
	if float64(c3d.InterSocketBytes) > 0.9*float64(shared.InterSocketBytes) {
		t.Errorf("C3D inter-socket traffic (%d B) should be well below the shared design's (%d B)",
			c3d.InterSocketBytes, shared.InterSocketBytes)
	}
}

func TestC3DFullDirEliminatesBroadcasts(t *testing.T) {
	tr := testTrace(t, communicationHeavySpec(), 8)
	c3d := runDesign(t, C3D, tr)
	ideal := runDesign(t, C3DFullDir, tr)
	if c3d.Counters.Broadcasts == 0 {
		t.Error("base C3D should broadcast for untracked writes on a sharing-heavy workload")
	}
	if ideal.Counters.Broadcasts != 0 {
		t.Errorf("c3d-full-dir should never broadcast, saw %d", ideal.Counters.Broadcasts)
	}
	// The idealised variant is at least as fast and generates no more
	// traffic.
	if ideal.InterSocketBytes > c3d.InterSocketBytes {
		t.Errorf("c3d-full-dir traffic (%d B) should not exceed base C3D's (%d B)",
			ideal.InterSocketBytes, c3d.InterSocketBytes)
	}
}

func TestRemoteMemoryFractionMatchesTableIShape(t *testing.T) {
	// With interleaved placement on four sockets and a shared-heavy
	// workload, roughly three quarters of memory accesses are remote
	// (Table I reports 61-77%).
	tr := testTrace(t, cacheFriendlySpec(), 8)
	base := runDesign(t, Baseline, tr)
	frac := base.Counters.RemoteMemFraction()
	if frac < 0.55 || frac > 0.9 {
		t.Errorf("remote memory fraction = %.2f, want roughly 0.75 (Table I)", frac)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	tr := testTrace(t, cacheFriendlySpec(), 8)
	a := runDesign(t, C3D, tr)
	b := runDesign(t, C3D, tr)
	if a.Cycles != b.Cycles {
		t.Errorf("two identical runs produced different cycle counts: %d vs %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("two identical runs produced different counters:\n%+v\n%+v", a.Counters, b.Counters)
	}
}

func TestEveryDesignRunsEveryRegistryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test over the full registry is slow; run without -short")
	}
	spec := workload.MustGet("streamcluster")
	tr, err := workload.Generate(spec, workload.Options{Threads: 8, Scale: 64, AccessesPerThread: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for _, design := range Designs() {
		res := runDesign(t, design, tr)
		if res.Cycles == 0 {
			t.Errorf("%v: zero cycles", design)
		}
		if res.Instructions == 0 {
			t.Errorf("%v: zero instructions", design)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	m := New(testConfig(C3D))
	empty := &trace.Trace{Name: "empty"}
	if _, err := m.RunSource(context.Background(), empty.Source(), DefaultRunOptions()); err == nil {
		t.Error("running an empty trace should fail")
	}
	tooWide := &trace.Trace{Name: "wide", Parallel: make([][]trace.Record, 1000)}
	if _, err := m.RunSource(context.Background(), tooWide.Source(), DefaultRunOptions()); err == nil {
		t.Error("running a trace with more threads than cores should fail")
	}
	tr := testTrace(t, cacheFriendlySpec(), 8)
	if _, err := m.RunSource(context.Background(), tr.Source(), RunOptions{WarmupFraction: 1.5}); err == nil {
		t.Error("an out-of-range warm-up fraction should fail")
	}
}

func TestSingleThreadedWorkloadRuns(t *testing.T) {
	spec := workload.MustGet("mcf")
	tr, err := workload.Generate(spec, workload.Options{Scale: 64, AccessesPerThread: 5000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(C3D)
	cfg.EnableBroadcastFilter = true
	m := New(cfg)
	res, err := m.RunSource(context.Background(), tr.Source(), DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	// mcf's data is all thread-private: with the §IV-D filter enabled there
	// must be no broadcast invalidations at all.
	if res.Counters.Broadcasts != 0 {
		t.Errorf("single-threaded run produced %d broadcasts with the filter enabled", res.Counters.Broadcasts)
	}
	if res.BroadcastFilterElided == 0 {
		t.Error("the filter should report elided broadcasts for mcf")
	}
}
