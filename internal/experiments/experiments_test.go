package experiments

import (
	"context"
	"strings"
	"testing"

	"c3d/internal/interconnect"
	"c3d/internal/machine"
	"c3d/internal/workload"
	"c3d/pkg/c3d/api"
)

// testConfig keeps experiment smoke tests fast: two representative workloads,
// 8 threads, short streams. The qualitative relationships checked below
// survive the reduction; `c3dexp` without -quick regenerates the full-scale
// numbers.
func testConfig() Config {
	cfg := QuickConfig()
	cfg.AccessesPerThread = 8000
	cfg.Workloads = specs("streamcluster", "nutch")
	return cfg
}

// specs resolves built-in workload names the way a session would.
func specs(names ...string) []workload.Spec {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		out[i] = workload.MustGet(n)
	}
	return out
}

func TestRegistryCoversEveryPaperArtefact(t *testing.T) {
	wantIDs := []string{"table1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "sec6c", "verify", "scaling"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Errorf("experiment %q missing from the registry", id)
		}
	}
	for _, e := range All() {
		if e.Description == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("entry %q incomplete", e.ID)
		}
	}
	if _, err := Lookup("fig6"); err != nil {
		t.Errorf("Lookup(fig6): %v", err)
	}
	if _, err := Lookup("fig42"); err == nil {
		t.Error("Lookup of an unknown experiment should fail")
	}
}

func TestTableIRemoteFractions(t *testing.T) {
	res, err := TableI(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RemoteFraction) != 2 {
		t.Fatalf("expected 2 workloads, got %d", len(res.RemoteFraction))
	}
	for name, frac := range res.RemoteFraction {
		// Table I reports 61-77% remote; allow wide tolerance at the reduced
		// test scale.
		if frac < 0.45 || frac > 0.95 {
			t.Errorf("%s remote fraction = %.2f, want roughly 0.6-0.8", name, frac)
		}
	}
	if res.Average <= 0 {
		t.Error("average remote fraction should be positive")
	}
	if !strings.Contains(res.Table().String(), "streamcluster") {
		t.Error("table output missing workload rows")
	}
}

func TestFig2ShowsLatencyNotBandwidth(t *testing.T) {
	res, err := Fig2(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	zeroLat := res.Geomean["0_qpi_lat"]
	infBW := res.Geomean["inf_mem_bw+inf_qpi_bw"]
	// The paper's conclusion: removing inter-socket latency helps a lot
	// (14-60%), removing bandwidth limits helps little.
	if zeroLat < 1.05 {
		t.Errorf("0-QPI-latency speedup = %.3f, want a clear gain", zeroLat)
	}
	if infBW > 1.10 {
		t.Errorf("infinite-bandwidth speedup = %.3f, want close to 1 (bandwidth is not the bottleneck)", infBW)
	}
	if zeroLat <= infBW {
		t.Errorf("latency (%.3f) should matter more than bandwidth (%.3f)", zeroLat, infBW)
	}
}

func TestFig3LargerLLCsCutMemoryAccesses(t *testing.T) {
	res, err := Fig3(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := res.Geomean[Fig3Capacities[1]]
	large := res.Geomean[Fig3Capacities[3]]
	if large >= 1.0 {
		t.Errorf("1GB-LLC normalised accesses = %.3f, want below 1", large)
	}
	if large > small {
		t.Errorf("memory accesses should fall monotonically with capacity: 64MB=%.3f, 1GB=%.3f", small, large)
	}
}

func TestFig6C3DWinsOnAverage(t *testing.T) {
	res, err := Fig6(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c3d := res.Geomean["c3d"]
	snoopy := res.Geomean["snoopy"]
	if c3d <= 1.0 {
		t.Errorf("C3D geomean speedup = %.3f, want above 1", c3d)
	}
	if c3d <= snoopy {
		t.Errorf("C3D (%.3f) should beat snoopy (%.3f)", c3d, snoopy)
	}
	// streamcluster is the headline winner in the paper.
	if sc := res.Speedup["streamcluster"]["c3d"]; sc < res.Speedup["nutch"]["c3d"] {
		t.Errorf("streamcluster speedup (%.3f) should exceed nutch's (%.3f)", sc, res.Speedup["nutch"]["c3d"])
	}
	if !strings.Contains(res.Table().String(), "geomean") {
		t.Error("table should include the geomean row")
	}
}

func TestFig8ReadsFallWritesDoNot(t *testing.T) {
	res, err := Fig8(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.GeomeanReads >= 1.0 {
		t.Errorf("normalised remote reads = %.3f, want below 1 (Fig. 8)", res.GeomeanReads)
	}
	// Write traffic is essentially unchanged by the write-through policy.
	if res.GeomeanWrites < 0.7 || res.GeomeanWrites > 1.3 {
		t.Errorf("normalised remote writes = %.3f, want near 1", res.GeomeanWrites)
	}
	if res.GeomeanTotal >= 1.0 {
		t.Errorf("normalised total remote accesses = %.3f, want below 1", res.GeomeanTotal)
	}
}

func TestFig9C3DCutsTrafficAndStaysNearFullDir(t *testing.T) {
	res, err := Fig9(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c3d := res.Geomean["c3d"]
	fullDir := res.Geomean["full-dir"]
	snoopy := res.Geomean["snoopy"]
	// At the reduced test scale most accesses are cold misses, so the
	// absolute reduction below the baseline seen at full scale does not
	// materialise; the orderings still must.
	if snoopy <= c3d {
		t.Errorf("snoopy traffic (%.3f) should exceed C3D's (%.3f)", snoopy, c3d)
	}
	if c3d > 1.4 {
		t.Errorf("C3D normalised traffic = %.3f, want close to or below the baseline", c3d)
	}
	// C3D's broadcasts add only a modest amount over the precise directory
	// (about 5% in the paper); allow generous slack at test scale.
	if c3d > fullDir*1.6 {
		t.Errorf("C3D traffic (%.3f) too far above full-dir's (%.3f)", c3d, fullDir)
	}
}

func TestSec6CFilterRemovesAllMcfBroadcasts(t *testing.T) {
	cfg := testConfig()
	cfg.Workloads = specs("streamcluster")
	res, err := Sec6C(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcf, ok := res.PerWorkload["mcf"]
	if !ok {
		t.Fatal("mcf missing from the §VI-C study")
	}
	if mcf.BroadcastsBase == 0 {
		t.Error("mcf without the filter should broadcast on write misses")
	}
	if mcf.BroadcastsFiltered != 0 {
		t.Errorf("mcf with the filter sent %d broadcasts, want 0 (all data is private)", mcf.BroadcastsFiltered)
	}
	if mcf.BroadcastReduction < 0.999 {
		t.Errorf("mcf broadcast reduction = %.3f, want 100%%", mcf.BroadcastReduction)
	}
	// Multi-threaded workloads see only a small broadcast reduction.
	if sc := res.PerWorkload["streamcluster"]; sc.BroadcastReduction > 0.5 {
		t.Errorf("streamcluster broadcast reduction = %.3f, want small (shared data dominates)", sc.BroadcastReduction)
	}
}

// TestSec6CRunsMcfOnce checks a workload set that already names mcf runs it
// once: two workloads, two simulations each.
func TestSec6CRunsMcfOnce(t *testing.T) {
	cfg := testConfig()
	cfg.AccessesPerThread = 300
	cfg.Workloads = specs("mcf", "streamcluster")
	total := 0
	cfg.Progress = func(e Event) { total = e.Total }
	res, err := Sec6C(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("sec6c ran %d simulations, want 4", total)
	}
	if len(res.PerWorkload) != 2 {
		t.Errorf("sec6c reported %d workloads, want 2", len(res.PerWorkload))
	}
}

func TestVerifyPasses(t *testing.T) {
	res, err := Verify(context.Background(), VerifyConfig{VerifySpec: api.VerifySpec{Sockets: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("protocol verification failed:\n%s", res.Table())
	}
	if len(res.Reports) != 2 {
		t.Errorf("expected 2 reports (base + full-dir variant), got %d", len(res.Reports))
	}
}

func TestQuickAndDefaultConfigs(t *testing.T) {
	def := DefaultConfig()
	if def.Threads != 32 || def.Sockets != 4 || def.Scale != workload.DefaultScale {
		t.Errorf("DefaultConfig = %+v, want the paper's 32-thread 4-socket setup", def)
	}
	quick := QuickConfig()
	if quick.AccessesPerThread >= 50_000 {
		t.Error("QuickConfig should use short access streams")
	}
	mc := def.machineConfig(4, machine.C3D, workload.MustGet("streamcluster").PreferredPolicy)
	if mc.CoresPerSocket != 8 {
		t.Errorf("machineConfig cores/socket = %d, want 8", mc.CoresPerSocket)
	}
}

// TestScalingStudyShapesAndSanity checks the socket-scaling grid: quick
// configurations sweep {2,4,8} sockets across every hosting topology with
// both designs, baseline rows are exactly 1.0 speedup, and the one-hop
// fully-connected fabric moves fewer bytes per access than the ring at 8
// sockets (it pays links for hops).
func TestScalingStudyShapesAndSanity(t *testing.T) {
	cfg := testConfig()
	cfg.AccessesPerThread = 2000
	cfg.Workloads = specs("streamcluster")
	res, err := Scaling(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 socket counts x 3 hosting topologies x 2 designs.
	if len(res.Points) != 18 {
		t.Fatalf("scaling produced %d points, want 18: %+v", len(res.Points), res.Points)
	}
	byKey := map[string]ScalingPoint{}
	for _, p := range res.Points {
		if p.Design == "baseline" && p.Speedup != 1.0 {
			t.Errorf("baseline speedup at %d/%s = %v, want exactly 1", p.Sockets, p.Topology, p.Speedup)
		}
		if p.OffSocketBytesPerAccess <= 0 {
			t.Errorf("no off-socket traffic recorded at %d/%s/%s", p.Sockets, p.Topology, p.Design)
		}
		byKey[key(p.Sockets, p.Topology, p.Design)] = p
	}
	for _, n := range []int{2, 4, 8} {
		for _, topo := range []string{"mesh", "full"} {
			if _, ok := byKey[key(n, topo, "c3d")]; !ok {
				t.Errorf("missing scaling point %d/%s/c3d", n, topo)
			}
		}
	}
	ring8 := byKey[key(8, "ring", "baseline")]
	full8 := byKey[key(8, "full", "baseline")]
	if full8.OffSocketBytesPerAccess >= ring8.OffSocketBytesPerAccess {
		t.Errorf("fully-connected@8 should move fewer bytes/access than ring@8: %v vs %v",
			full8.OffSocketBytesPerAccess, ring8.OffSocketBytesPerAccess)
	}
	if ring8.Diameter != 4 || full8.Diameter != 1 {
		t.Errorf("diameters ring8=%d full8=%d, want 4 and 1", ring8.Diameter, full8.Diameter)
	}
	if full8.Links != 56 || ring8.Links != 16 {
		t.Errorf("links ring8=%d full8=%d, want 16 and 56", ring8.Links, full8.Links)
	}
}

// TestTopologyConfigReachesMachines checks Config.Topology flows into the
// machines an ordinary experiment builds: table1 on a fully-connected
// 4-socket fabric must differ from the ring default (fewer hops, same
// remote-access pattern) while remaining deterministic.
func TestTopologyConfigReachesMachines(t *testing.T) {
	run := func(topo interconnect.Topology) TableIResult {
		cfg := testConfig()
		cfg.AccessesPerThread = 2000
		cfg.Workloads = specs("streamcluster")
		cfg.Topology = topo
		res, err := TableI(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ring := run("") // default for 4 sockets
	full := run(interconnect.FullyConnected)
	full2 := run(interconnect.FullyConnected)
	// Same topology twice: identical (determinism). Different topology:
	// the timing feedback must show up somewhere — if the knob never
	// reached the machine the two runs would be bit-identical.
	differs := false
	for wl, frac := range ring.RemoteFraction {
		if full.RemoteFraction[wl] != full2.RemoteFraction[wl] {
			t.Errorf("fully-connected rerun diverged for %s", wl)
		}
		if full.RemoteFraction[wl] != frac {
			differs = true
		}
	}
	if !differs && ring.Average == full.Average {
		t.Error("topology override produced bit-identical results: the knob never reached the machines")
	}
}

// TestTopologyShapeConflictIsAnErrorNotAPanic pins the failure mode of a
// topology that suits the session's shape but not an experiment's own: fig7
// builds 2-socket machines, which a ring cannot host. That must surface as a
// job error — a panic here runs inside a sweep worker goroutine and would
// take down the whole process (CLI or c3dd daemon).
func TestTopologyShapeConflictIsAnErrorNotAPanic(t *testing.T) {
	cfg := testConfig()
	cfg.AccessesPerThread = 500
	cfg.Workloads = specs("streamcluster")
	cfg.Topology = interconnect.Ring
	_, err := Fig7(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "hosts 3-16 sockets, not 2") {
		t.Fatalf("fig7 under -topology ring: err = %v, want a hosting error", err)
	}
}

func TestLatencySensitivityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweeps are slow; run without -short")
	}
	cfg := testConfig()
	cfg.Workloads = specs("streamcluster")
	f10, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// C3D keeps a healthy gain even when the DRAM cache is as slow as
	// memory (50ns), per §VI-D.
	if s := f10.Speedup[50]["c3d"]; s <= 1.0 {
		t.Errorf("c3d speedup at 50ns DRAM cache latency = %.3f, want above 1", s)
	}
	if f10.Speedup[30]["c3d"] < f10.Speedup[50]["c3d"] {
		t.Error("a faster DRAM cache should not reduce C3D's speedup")
	}
	f11, err := Fig11(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// C3D's gain grows with the inter-socket latency.
	if f11.Speedup[30]["c3d"] < f11.Speedup[5]["c3d"] {
		t.Errorf("c3d speedup should grow with inter-socket latency: 5ns=%.3f, 30ns=%.3f",
			f11.Speedup[5]["c3d"], f11.Speedup[30]["c3d"])
	}
}

func TestPrivateVsSharedAndAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow; run without -short")
	}
	cfg := testConfig()
	cfg.Workloads = specs("streamcluster")
	pvs, err := PrivateVsShared(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := pvs.TrafficReduction["streamcluster"]
	if row["c3d"] <= row["shared"] {
		t.Errorf("private caches should cut more inter-socket traffic than the shared organisation: %.3f vs %.3f",
			row["c3d"], row["shared"])
	}
	abl, err := Ablation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if abl.MissPredictor["streamcluster"] <= 0 {
		t.Error("miss-predictor ablation should produce a speedup ratio")
	}
}
