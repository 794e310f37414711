package c3d

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"c3d/internal/experiments"
	"c3d/internal/machine"
	"c3d/internal/workload"
)

// session builds a session from params, failing the test on a validation
// error.
func session(t *testing.T, p Params) *Session {
	t.Helper()
	sess, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSimulateMatchesDirectRun is the SDK parity contract: Simulate must be
// bit-identical to assembling the machine and workload by hand the way the
// pre-SDK CLI did.
func TestSimulateMatchesDirectRun(t *testing.T) {
	const (
		threads  = 8
		scale    = 512
		accesses = 2000
	)
	sess := session(t, Params{Design: "c3d", Sockets: 4, Threads: threads, Scale: scale, Accesses: accesses})
	got, err := sess.Simulate(t.Context(), "streamcluster")
	if err != nil {
		t.Fatal(err)
	}

	spec := workload.MustGet("streamcluster")
	mcfg := machine.DefaultConfig(4, machine.C3D)
	mcfg.Scale = scale
	mcfg.MemPolicy = spec.PreferredPolicy
	src, err := workload.NewSource(spec, workload.Options{
		Threads: threads, Scale: scale, AccessesPerThread: accesses,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := machine.New(mcfg).RunSource(t.Context(), src, machine.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}

	gj, _ := json.Marshal(got.RunResult)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("SDK result differs from direct run:\nsdk:    %s\ndirect: %s", gj, wj)
	}
	if got.ThreadsClamped || got.EffectiveThreads != threads {
		t.Fatalf("unexpected thread resolution: %+v", got)
	}
}

// TestSimulateStreamingMatchesMaterialised checks Simulate, which always
// streams, is bit-identical to running a materialised trace of the same
// workload.
func TestSimulateStreamingMatchesMaterialised(t *testing.T) {
	sess := session(t, Params{Threads: 8, Scale: 512, Accesses: 1500})
	got, err := sess.Simulate(t.Context(), "canneal")
	if err != nil {
		t.Fatal(err)
	}
	mcfg, err := sess.MachineConfigFor("canneal")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.MustGet("canneal"), workload.Options{
		Threads: 8, Scale: 512, AccessesPerThread: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := machine.New(mcfg).RunSource(t.Context(), tr.Source(), machine.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got.RunResult)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("streaming and materialised runs differ:\n%s\n%s", a, b)
	}
}

// TestSimulateClampsThreads checks an over-wide request is clamped and the
// clamp surfaced, instead of erroring or lying.
func TestSimulateClampsThreads(t *testing.T) {
	sess := session(t, Params{Sockets: 2, Threads: 64, Scale: 512, Accesses: 500})
	res, err := sess.Simulate(t.Context(), "streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ThreadsClamped || res.RequestedThreads != 64 || res.EffectiveThreads != res.Cores || res.Cores >= 64 {
		t.Fatalf("clamp not surfaced: %+v", res)
	}
}

// TestExperimentCancelledStopsSweepEarly is the acceptance gate for context
// cancellation: cancelling mid-campaign must abort promptly, before the
// remaining simulations run.
func TestExperimentCancelledStopsSweepEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	// Parallelism 1 serialises the sweep so "stopped early" is observable.
	sess := session(t, Params{Quick: true, Accesses: 4000, Parallelism: 1}).WithProgress(func(e Event) {
		if done.Add(1) == 1 {
			cancel() // cancel after the first completed simulation
		}
	})
	// fig6 is 6 designs x 9 workloads = 54 simulations.
	_, err := sess.Experiment(ctx, "fig6")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 54 {
		t.Fatalf("campaign ran all %d simulations despite cancellation", n)
	}
}

// TestVerifyCancelled checks a cancelled verification returns ctx's error
// with partial, Interrupted-marked reports.
func TestVerifyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := session(t, Params{}).Verify(ctx, VerifyRequest{Sockets: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, rep := range res.Reports {
		if !rep.Interrupted {
			t.Errorf("report %s not marked interrupted", rep.Model)
		}
	}
}

// TestExperimentMatchesInternalRun checks the SDK routes through the same
// experiment code path as direct internal use.
func TestExperimentMatchesInternalRun(t *testing.T) {
	sess := session(t, Params{Quick: true, Workloads: []string{"streamcluster"}, Accesses: 2000})
	got, err := sess.Experiment(t.Context(), "table1")
	if err != nil {
		t.Fatal(err)
	}

	cfg := experiments.QuickConfig()
	cfg.Workloads = []workload.Spec{workload.MustGet("streamcluster")}
	cfg.AccessesPerThread = 2000
	want, err := experiments.TableI(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got.Table)
	wj, _ := json.Marshal(want.Table())
	if !bytes.Equal(gj, wj) {
		t.Fatalf("SDK experiment differs from internal run:\n%s\n%s", gj, wj)
	}
}

// TestExperimentHonoursZeroWarmup checks an explicit zero warm-up reaches the
// experiment as zero, as it does for Simulate, rather than being read as
// "unset" and replaced by the 0.25 default.
func TestExperimentHonoursZeroWarmup(t *testing.T) {
	fig6 := func(warmup float64) []byte {
		sess := session(t, Params{Quick: true, Workloads: []string{"streamcluster"}, Accesses: 2000, Warmup: &warmup})
		res, err := sess.Experiment(t.Context(), "fig6")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Table)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if zero, def := fig6(0), fig6(0.25); bytes.Equal(zero, def) {
		t.Fatalf("fig6 with warm-up 0 matches warm-up 0.25:\n%s", zero)
	}
}

// TestTraceRoundTripThroughSDK checks TraceSource -> TraceEncode ->
// OpenTrace preserves the stream statistics, and that encoding observes
// cancellation.
func TestTraceRoundTripThroughSDK(t *testing.T) {
	src, err := session(t, Params{Threads: 4, Accesses: 800, Scale: 512}).TraceSource("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := ComputeTraceStats(t.Context(), src)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/t.c3dt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := TraceEncode(t.Context(), f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	gotStats, err := ComputeTraceStats(t.Context(), tf)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("round-trip stats differ:\n%+v\n%+v", gotStats, wantStats)
	}

	// Cancelled encode must fail, not spin through the whole stream.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := TraceEncode(ctx, &buf, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled encode: err = %v, want context.Canceled", err)
	}
}

// TestParamsValidation checks a fully populated valid configuration is
// accepted; TestParamsValidationErrors covers the rejections.
func TestParamsValidation(t *testing.T) {
	session(t, Params{Quick: true, Design: "c3d", Policy: "FT2", Topology: "p2p", Sockets: 2,
		Threads: 8, Accesses: 100, Scale: 512, Parallelism: 2,
		Seed: 42, Workloads: []string{"streamcluster"}})
}

// TestTopologyOptions checks the Topology/Sockets params land in the
// simulation result and the machine configuration.
func TestTopologyOptions(t *testing.T) {
	sess := session(t, Params{Sockets: 8, Topology: "mesh", Threads: 8, Accesses: 2000, Scale: 512})
	res, err := sess.Simulate(context.Background(), "streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sockets != 8 || res.Topology != Mesh {
		t.Errorf("simulate on mesh@8 reported %d sockets, topology %q", res.Sockets, res.Topology)
	}
	// Defaults resolve to the paper's shapes.
	mcfg, err := sess.MachineConfigFor("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if topo, err := mcfg.ResolvedTopology(); err != nil || topo != Mesh {
		t.Errorf("machine config topology = %v, %v; want mesh", topo, err)
	}
	if got := Topologies(); len(got) != 4 || got[0] != PointToPoint || got[3] != FullyConnected {
		t.Errorf("Topologies() = %v", got)
	}
	if topo, err := ParseTopology("full"); err != nil || topo != FullyConnected {
		t.Errorf("ParseTopology(full) = %v, %v", topo, err)
	}
}

// TestScalingExperimentViaSDK runs the registered scaling experiment through
// the Session facade — the same path c3dexp and the daemon use.
func TestScalingExperimentViaSDK(t *testing.T) {
	sess := session(t, Params{Quick: true, Workloads: []string{"streamcluster"}, Accesses: 2000})
	res, err := sess.Experiment(context.Background(), "scaling")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "scaling" || res.Table == nil {
		t.Fatalf("implausible scaling result: %+v", res)
	}
	// Quick grid: {2,4,8} sockets x 3 hosting topologies x 2 designs.
	if rows := res.Table.NumRows(); rows != 18 {
		t.Errorf("scaling table has %d rows, want 18", rows)
	}
	found := false
	for _, id := range ExperimentIDs() {
		if id == "scaling" {
			found = true
		}
	}
	if !found {
		t.Error("scaling missing from ExperimentIDs")
	}
}

// TestWorkloadsListing sanity-checks the registry projection.
func TestWorkloadsListing(t *testing.T) {
	ws := Workloads()
	if len(ws) == 0 {
		t.Fatal("no workloads listed")
	}
	suite := 0
	for _, w := range ws {
		if w.Name == "" || w.DefaultThreads <= 0 {
			t.Errorf("implausible workload info: %+v", w)
		}
		if w.InSuite {
			suite++
		}
	}
	if suite != 9 {
		t.Errorf("suite size %d, want the paper's nine", suite)
	}
}

// TestCapabilitiesBytes pins the capabilities document the daemon and the
// coordinator serve: apart from the build version, its JSON encoding is part
// of the wire contract and must not move when the listings are refactored.
func TestCapabilitiesBytes(t *testing.T) {
	const want = `{"version":"","designs":["baseline","snoopy","full-dir","c3d","c3d-full-dir","shared"],"topologies":["p2p","ring","mesh","full"],"experiments":[` +
		`{"id":"table1","paper":"Table I","description":"fraction of memory accesses satisfied by remote memory (4-socket baseline)"},` +
		`{"id":"fig2","paper":"Fig. 2","description":"NUMA bottleneck analysis: idealised latency/bandwidth configurations"},` +
		`{"id":"fig3","paper":"Fig. 3","description":"memory accesses versus LLC capacity, normalised to a 16MB LLC"},` +
		`{"id":"fig6","paper":"Fig. 6","description":"4-socket performance comparison of the coherence designs"},` +
		`{"id":"fig7","paper":"Fig. 7","description":"2-socket performance comparison of the coherence designs"},` +
		`{"id":"fig8","paper":"Fig. 8","description":"C3D remote memory traffic normalised to the baseline"},` +
		`{"id":"fig9","paper":"Fig. 9","description":"inter-socket traffic of each design normalised to the baseline"},` +
		`{"id":"fig10","paper":"Fig. 10","description":"sensitivity to DRAM cache latency (30/40/50ns)"},` +
		`{"id":"fig11","paper":"Fig. 11","description":"sensitivity to inter-socket latency (5/10/20/30ns)"},` +
		`{"id":"sec6c","paper":"§VI-C","description":"broadcast reduction from the TLB private-page filter (suite + mcf)"},` +
		`{"id":"verify","paper":"§IV-C","description":"model-check the C3D protocol (SWMR, data-value, deadlock freedom)"},` +
		`{"id":"shared","paper":"§II-C","description":"private versus shared DRAM cache organisation"},` +
		`{"id":"ablation","paper":"§IV (ext.)","description":"isolate the clean property, the non-inclusive directory and the miss predictor"},` +
		`{"id":"scaling","paper":"§V (ext.)","description":"socket-scaling study: speedup and off-socket traffic vs socket count x topology x design"},` +
		`{"id":"scaling-sampled","paper":"§V (ext.)","description":"sampled socket-scaling study: the same sweep via SMARTS-style sampling, every metric with 95% error bars"}],` +
		`"workloads":["facesim","streamcluster","freqmine","fluidanimate","canneal","tunkrank","nutch","cassandra","classification","mcf","bursty-tail","multitenant-mix","phase-shift"]}`
	caps := CurrentCapabilities()
	caps.Version = ""
	got, err := json.Marshal(caps)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("capabilities JSON changed:\ngot  %s\nwant %s", got, want)
	}
}
