package machine

import (
	"testing"

	"c3d/internal/interconnect"
	"c3d/internal/numa"
	"c3d/internal/sim"
)

// TestTableIIDefaults pins the default configuration to Table II of the
// paper.
func TestTableIIDefaults(t *testing.T) {
	cfg := DefaultConfig(4, C3D)
	if cfg.Sockets != 4 || cfg.CoresPerSocket != 8 {
		t.Errorf("4-socket config = %d sockets x %d cores, want 4 x 8", cfg.Sockets, cfg.CoresPerSocket)
	}
	if cfg.Cores() != 32 {
		t.Errorf("Cores() = %d, want 32", cfg.Cores())
	}
	if cfg2 := DefaultConfig(2, C3D); cfg2.CoresPerSocket != 16 || cfg2.Cores() != 32 {
		t.Errorf("2-socket config = %d cores/socket, want 16 (32 total)", cfg2.CoresPerSocket)
	}
	if cfg.L1SizeBytes != 64*kib || cfg.L1Ways != 8 || cfg.L1Latency != 3 {
		t.Error("L1 parameters do not match Table II (64KB/8-way, 3-cycle)")
	}
	if cfg.LLCSizeBytes != 16*mib || cfg.LLCWays != 16 || cfg.LLCTagLatency != 7 || cfg.LLCDataLatency != 13 {
		t.Error("LLC parameters do not match Table II (16MB/16-way, 7-cycle tag, 13-cycle data)")
	}
	if cfg.DRAMCacheSizeBytes != 1*gib || cfg.DRAMCacheLatencyNs != 40 || cfg.DRAMCacheChannels != 8 {
		t.Error("DRAM cache parameters do not match Table II (1GB, 40ns, 8 channels)")
	}
	if cfg.PredictorEntries != 4096 {
		t.Error("miss predictor should have 4K entries (Table II)")
	}
	if cfg.MemLatencyNs != 50 || cfg.MemChannels != 2 || cfg.MemBandwidthGBs != 12.8 {
		t.Error("memory parameters do not match Table II (50ns, 2 channels, 12.8GB/s)")
	}
	if cfg.HopLatencyNs != 20 || cfg.LinkBandwidthGBs != 25.6 {
		t.Error("interconnect parameters do not match Table II (20ns/hop, 25.6GB/s)")
	}
	if cfg.GlobalDirLatency != 10 || cfg.DirProvisioning != 2 || cfg.DirWays != 32 {
		t.Error("global directory parameters do not match Table II (10-cycle, sparse 2x/32-way)")
	}
	if cfg.StoreQueueEntries != 32 {
		t.Error("store queue should have 32 entries (Table II)")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDesignStringsAndParsing(t *testing.T) {
	for _, d := range Designs() {
		name := d.String()
		parsed, err := ParseDesign(name)
		if err != nil || parsed != d {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", name, parsed, err, d)
		}
	}
	if _, err := ParseDesign("quantum"); err == nil {
		t.Error("unknown design name should fail to parse")
	}
	if len(EvaluatedDesigns()) != 5 {
		t.Errorf("EvaluatedDesigns() has %d entries, want 5 (Figs. 6-9)", len(EvaluatedDesigns()))
	}
}

func TestDesignProperties(t *testing.T) {
	if Baseline.HasDRAMCache() {
		t.Error("the baseline has no DRAM cache")
	}
	for _, d := range []Design{Snoopy, FullDir, C3D, C3DFullDir, SharedDRAM} {
		if !d.HasDRAMCache() {
			t.Errorf("%v should have a DRAM cache", d)
		}
	}
	if !C3D.CleanDRAMCache() || !C3DFullDir.CleanDRAMCache() {
		t.Error("the C3D designs keep their DRAM caches clean")
	}
	if Snoopy.CleanDRAMCache() || FullDir.CleanDRAMCache() {
		t.Error("the naive designs use dirty DRAM caches")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(4, C3D)
	cases := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.CoresPerSocket = 0 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.LLCSizeBytes = 0 },
		func(c *Config) { c.DRAMCacheSizeBytes = 0 }, // C3D needs a DRAM cache
		func(c *Config) { c.DirProvisioning = -1 },
		func(c *Config) { c.Design = "warp-drive" },
		func(c *Config) { c.Topology = "moebius" },
		func(c *Config) { c.Topology = interconnect.PointToPoint },        // cannot host 4 sockets
		func(c *Config) { c.Sockets = 17 },                                // no default topology
		func(c *Config) { c.Sockets = 2; c.Topology = interconnect.Ring }, // ring needs >= 3
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A baseline config without a DRAM cache size is fine.
	base := DefaultConfig(4, Baseline)
	base.DRAMCacheSizeBytes = 0
	if err := base.Validate(); err != nil {
		t.Errorf("baseline without DRAM cache rejected: %v", err)
	}
	// Every built-in topology validates on a shape it hosts.
	for _, c := range []struct {
		sockets int
		topo    interconnect.Topology
	}{
		{2, interconnect.PointToPoint},
		{8, interconnect.Ring},
		{8, interconnect.Mesh},
		{16, interconnect.FullyConnected},
	} {
		cfg := DefaultConfig(c.sockets, C3D)
		cfg.Topology = c.topo
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s@%d rejected: %v", c.topo, c.sockets, err)
		}
	}
}

func TestResolvedTopology(t *testing.T) {
	cases := []struct {
		sockets int
		topo    interconnect.Topology
		want    interconnect.Topology
	}{
		{2, "", interconnect.PointToPoint},
		{4, "", interconnect.Ring},
		{16, "", interconnect.Ring},
		{8, interconnect.Mesh, interconnect.Mesh},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.sockets, C3D)
		cfg.Topology = c.topo
		got, err := cfg.ResolvedTopology()
		if err != nil || got != c.want {
			t.Errorf("ResolvedTopology(%d sockets, %q) = %v, %v; want %v", c.sockets, c.topo, got, err, c.want)
		}
	}
	bad := DefaultConfig(4, C3D)
	bad.Topology = interconnect.PointToPoint
	if _, err := bad.ResolvedTopology(); err == nil {
		t.Error("p2p cannot host 4 sockets")
	}
}

// TestDefaultConfigGeneralizedShapes pins the cores-per-socket rule beyond
// the paper's two machines: socket counts dividing 32 keep the 32-core
// total, others fall back to 8 per socket.
func TestDefaultConfigGeneralizedShapes(t *testing.T) {
	cases := []struct{ sockets, coresPerSocket int }{
		{1, 32}, {2, 16}, {4, 8}, {8, 4}, {16, 2}, {3, 8}, {5, 8}, {6, 8},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.sockets, C3D)
		if cfg.CoresPerSocket != c.coresPerSocket {
			t.Errorf("DefaultConfig(%d).CoresPerSocket = %d, want %d", c.sockets, cfg.CoresPerSocket, c.coresPerSocket)
		}
		if cfg.Topology != "" {
			t.Errorf("DefaultConfig(%d) should leave the topology at the default, got %q", c.sockets, cfg.Topology)
		}
	}
	for _, n := range []int{8, 16} {
		if err := DefaultConfig(n, C3D).Validate(); err != nil {
			t.Errorf("DefaultConfig(%d) invalid: %v", n, err)
		}
	}
}

func TestScaledCapacities(t *testing.T) {
	cfg := DefaultConfig(4, C3D)
	if got := cfg.ScaledLLCSize(); got != 256*kib {
		t.Errorf("ScaledLLCSize = %d, want 256KiB at scale 64", got)
	}
	if got := cfg.ScaledDRAMCacheSize(); got != 16*mib {
		t.Errorf("ScaledDRAMCacheSize = %d, want 16MiB at scale 64", got)
	}
	cfg.Scale = 1
	if got := cfg.ScaledLLCSize(); got != 16*mib {
		t.Errorf("unscaled LLC = %d, want 16MiB", got)
	}
	// Extreme scales never collapse a cache below the floor or to a
	// non-power-of-two.
	cfg.Scale = 1 << 20
	got := cfg.ScaledLLCSize()
	if got < 16*kib || got&(got-1) != 0 {
		t.Errorf("extreme scaling produced capacity %d", got)
	}
}

func TestDirEntriesScaling(t *testing.T) {
	cfg := DefaultConfig(4, Baseline)
	entries := cfg.DirEntries()
	// 2x the scaled LLC blocks: 256KiB/64B * 2 = 8192.
	if entries != 8192 {
		t.Errorf("DirEntries = %d, want 8192", entries)
	}
	if entries%cfg.DirWays != 0 {
		t.Errorf("DirEntries %d not divisible by %d ways", entries, cfg.DirWays)
	}
	cfg.DirProvisioning = 0
	if cfg.DirEntries() != 0 {
		t.Error("zero provisioning should mean an unbounded directory")
	}
}

func TestNsConversionInConfig(t *testing.T) {
	cfg := DefaultConfig(4, C3D)
	// 40ns at 3GHz = 120 cycles; 50ns = 150 cycles; 20ns = 60 cycles.
	if sim.NsToCycles(cfg.DRAMCacheLatencyNs) != 120 {
		t.Error("DRAM cache latency should convert to 120 cycles")
	}
	if sim.NsToCycles(cfg.MemLatencyNs) != 150 {
		t.Error("memory latency should convert to 150 cycles")
	}
	if sim.NsToCycles(cfg.HopLatencyNs) != 60 {
		t.Error("hop latency should convert to 60 cycles")
	}
}

// TestMachineBuildsSelectedTopology checks the Topology knob reaches the
// fabric (and that the default resolution still lands on the paper's shapes).
func TestMachineBuildsSelectedTopology(t *testing.T) {
	cfg := DefaultConfig(8, C3D)
	cfg.Topology = interconnect.Mesh
	if got := New(cfg).Fabric().Topology(); got != interconnect.Mesh {
		t.Errorf("fabric topology = %v, want mesh", got)
	}
	if got := New(DefaultConfig(2, Baseline)).Fabric().Topology(); got != interconnect.PointToPoint {
		t.Errorf("2-socket default fabric = %v, want p2p", got)
	}
	if got := New(DefaultConfig(4, Baseline)).Fabric().Topology(); got != interconnect.Ring {
		t.Errorf("4-socket default fabric = %v, want ring", got)
	}
}

func TestDefaultPolicy(t *testing.T) {
	if DefaultConfig(4, C3D).MemPolicy != numa.FirstTouch2 {
		t.Error("default placement policy should be FT2")
	}
}
