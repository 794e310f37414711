package machine

import (
	"fmt"
	"runtime"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/numa"
	"c3d/internal/sim"
)

// testConfig returns a small 4-socket machine (2 cores per socket) with
// deterministic interleaved page placement, suitable for directed unit tests.
func testConfig(design Design) Config {
	cfg := DefaultConfig(4, design)
	cfg.CoresPerSocket = 2
	cfg.MemPolicy = numa.Interleave
	return cfg
}

// addrHomedAt returns an address whose page is homed at the given socket
// under the interleaved policy (page p -> socket p mod 4).
func addrHomedAt(socket int, offset uint64) addr.Addr {
	return addr.Addr(uint64(socket)*addr.PageBytes + offset)
}

func TestReadHitLatencies(t *testing.T) {
	m := New(testConfig(Baseline))
	a := addrHomedAt(0, 0)
	first := m.Read(0, 0, a)
	// Second access hits the L1 and costs exactly the L1 latency.
	second := m.Read(first, 0, a).Sub(first)
	if second != sim.Cycles(m.Config().L1Latency) {
		t.Errorf("L1 hit latency = %v, want %v", second, m.Config().L1Latency)
	}
	if first < sim.Time(sim.NsToCycles(50)) {
		t.Errorf("cold miss latency = %v, want at least the memory latency", first)
	}
	// A read by another core on the same socket hits the shared LLC.
	third := m.Read(first, 1, a).Sub(first)
	wantLLC := sim.Cycles(m.Config().L1Latency + m.Config().LLCTagLatency + m.Config().LLCDataLatency)
	if third != wantLLC {
		t.Errorf("LLC hit latency = %v, want %v", third, wantLLC)
	}
}

func TestLocalVersusRemoteMemoryLatency(t *testing.T) {
	m := New(testConfig(Baseline))
	local := m.Read(0, 0, addrHomedAt(0, 0))      // home socket 0, requester socket 0
	remote := m.Read(0, 0, addrHomedAt(2, 0)) - 0 // home socket 2, requester socket 0
	hop := sim.Time(sim.NsToCycles(m.Config().HopLatencyNs))
	if remote < local+2*hop {
		t.Errorf("remote access (%v) should cost at least two extra hops over local (%v)", remote, local)
	}
	c := m.Counters()
	if c.MemReads != 2 || c.RemoteMemReads != 1 {
		t.Errorf("counters = %+v; want 2 memory reads of which 1 remote", c)
	}
}

func TestZeroHopLatencyIdealisation(t *testing.T) {
	cfg := testConfig(Baseline)
	cfg.ZeroHopLatency = true
	m := New(cfg)
	mBase := New(testConfig(Baseline))
	remoteIdeal := m.Read(0, 0, addrHomedAt(2, 0))
	remoteReal := mBase.Read(0, 0, addrHomedAt(2, 0))
	if remoteIdeal >= remoteReal {
		t.Errorf("0-QPI-latency access (%v) should be faster than the real one (%v)", remoteIdeal, remoteReal)
	}
}

func TestWriteOwnershipWithinSocket(t *testing.T) {
	m := New(testConfig(Baseline))
	a := addrHomedAt(0, 64)
	done := m.Write(0, 0, a)
	if done == 0 {
		t.Fatal("write completion time should be positive")
	}
	// A second write by the same core is an L1 hit in Modified state.
	d2 := m.Write(done, 0, a).Sub(done)
	if d2 != sim.Cycles(m.Config().L1Latency) {
		t.Errorf("write hit latency = %v, want %v", d2, m.Config().L1Latency)
	}
	// A write by the other core on the same socket resolves within the
	// socket (LLC already Modified): no new directory traffic.
	before := m.Counters().MemReads
	m.Write(done, 1, a)
	if m.Counters().MemReads != before {
		t.Error("intra-socket write should not access memory")
	}
}

func TestCrossSocketOwnershipTransfer(t *testing.T) {
	m := New(testConfig(Baseline))
	a := addrHomedAt(0, 128)
	b := addr.BlockOf(a)
	m.Write(0, 0, a) // core 0 (socket 0) takes ownership
	if !m.Sockets()[0].LLC().Contains(b) {
		t.Fatal("socket 0 LLC should hold the block after the write")
	}
	m.Write(1000, 2, a) // core 2 lives on socket 1
	if m.Sockets()[0].LLC().Contains(b) {
		t.Error("socket 0 should have been invalidated when socket 1 took ownership")
	}
	if !m.Sockets()[1].LLC().Contains(b) {
		t.Error("socket 1 LLC should hold the block after its write")
	}
}

func TestReadAfterRemoteModify(t *testing.T) {
	// A read of a block Modified in another socket's on-chip hierarchy is
	// served by forwarding, not by (stale) memory, in every design.
	for _, design := range []Design{Baseline, FullDir, C3D} {
		m := New(testConfig(design))
		a := addrHomedAt(1, 0)
		m.Write(0, 0, a) // socket 0 modifies a block homed on socket 1
		memReadsBefore := m.Counters().MemReads
		m.Read(10_000, 6, a) // core 6 lives on socket 3
		// The forward must not have read memory for the data (C3D/baseline
		// write the block back to memory as part of the downgrade, which is
		// a memory *write*).
		if design != FullDir && m.Counters().MemReads != memReadsBefore {
			t.Errorf("%v: read of a remotely-Modified block went to memory", design)
		}
		if m.Counters().MemWrites == 0 && design != FullDir {
			t.Errorf("%v: downgrade should have written the dirty data back", design)
		}
	}
}

func TestC3DLocalDRAMCacheHitAfterLLCEviction(t *testing.T) {
	cfg := testConfig(C3D)
	m := New(cfg)
	target := addrHomedAt(2, 0) // remote home so a miss would be expensive
	m.Read(0, 0, target)

	// Evict the target from socket 0's LLC by touching enough blocks that
	// map to the same set (LLC: 256KiB, 16 ways, 256 sets -> stride 256
	// blocks).
	sets := m.Sockets()[0].LLC().Sets()
	ways := m.Sockets()[0].LLC().Ways()
	t0 := sim.Time(1_000_000)
	for i := 1; i <= ways+1; i++ {
		conflicting := target + addr.Addr(i*sets*addr.BlockBytes)
		t0 = m.Read(t0, 0, conflicting)
	}
	if m.Sockets()[0].LLC().Contains(addr.BlockOf(target)) {
		t.Skip("conflict stream did not evict the target; LLC geometry changed")
	}
	if !m.Sockets()[0].DRAMCache().Contains(addr.BlockOf(target)) {
		t.Fatal("LLC victim should have been captured by the local DRAM cache")
	}
	// Re-reading the target now hits the local DRAM cache: no new memory
	// read, and the latency is far below a remote memory access.
	memReadsBefore := m.Counters().MemReads
	lat := m.Read(t0, 0, target).Sub(t0)
	if m.Counters().MemReads != memReadsBefore {
		t.Error("DRAM cache hit still accessed memory")
	}
	remoteMemLatency := sim.Cycles(sim.NsToCycles(50) + 4*sim.NsToCycles(20))
	if lat >= remoteMemLatency {
		t.Errorf("local DRAM cache hit latency %v not faster than a remote memory access (%v)", lat, remoteMemLatency)
	}
}

// TestSharedRecallWritesBackThroughHomePort recalls a dirty block from a
// one-entry directory under shared: its write-back must go through the home
// port, so the home's memory-side DRAM cache ends with the block dirty, not
// with the stale clean copy the first write's fill left there.
func TestSharedRecallWritesBackThroughHomePort(t *testing.T) {
	cfg := testConfig(SharedDRAM)
	cfg.DirWays, cfg.DirProvisioning = 1, 1e-9
	m := New(cfg)
	if n := cfg.DirEntries(); n != 1 {
		t.Fatalf("directory has %d entries per slice, want 1", n)
	}
	a, b := addrHomedAt(1, 0), addrHomedAt(1, addr.BlockBytes)
	// Socket 0 writes a, then b: b's entry takes the slice's only way, and
	// recalls a while socket 0 holds it dirty.
	m.Write(m.Write(0, 0, a), 0, b)
	if m.Counters().DirRecalls != 1 {
		t.Fatalf("DirRecalls = %d, want 1", m.Counters().DirRecalls)
	}
	if m.Sockets()[0].LLC().Contains(addr.BlockOf(a)) {
		t.Fatal("the recall left socket 0's copy in place")
	}
	line, ok, _ := m.Sockets()[1].DRAMCache().Probe(0, addr.BlockOf(a))
	if !ok || !line.Dirty {
		t.Errorf("home DRAM cache holds a: %v, dirty %v; want the recalled data, dirty", ok, line.Dirty)
	}
}

func TestC3DWriteBroadcastsForUntrackedBlocks(t *testing.T) {
	m := New(testConfig(C3D))
	a := addrHomedAt(1, 0)
	// A read by socket 3 caches the block there without a directory entry
	// (GetS in Invalid does not allocate).
	m.Read(0, 6, a)
	// A write by socket 0 finds the block untracked and must broadcast.
	m.Write(100_000, 0, a)
	c := m.Counters()
	if c.Broadcasts == 0 {
		t.Fatal("write to an untracked block should broadcast invalidations")
	}
	// The broadcast must have removed socket 3's copies.
	if m.Sockets()[3].LLC().Contains(addr.BlockOf(a)) {
		t.Error("socket 3 LLC copy survived the broadcast")
	}
	if m.Sockets()[3].DRAMCache().Contains(addr.BlockOf(a)) {
		t.Error("socket 3 DRAM cache copy survived the broadcast")
	}
}

func TestC3DBroadcastFilterOnPrivateData(t *testing.T) {
	cfg := testConfig(C3D)
	cfg.EnableBroadcastFilter = true
	m := New(cfg)
	// A single core writing its own data: every page it touches is
	// classified private, so no write needs a broadcast.
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		now = m.Write(now, 0, addr.Addr(i*addr.BlockBytes))
	}
	c := m.Counters()
	if c.Broadcasts != 0 {
		t.Errorf("Broadcasts = %d, want 0 for thread-private data with the filter on", c.Broadcasts)
	}
	if c.BroadcastsAvoided == 0 {
		t.Error("the filter should have recorded avoided broadcasts")
	}
}

func TestC3DCleanInvariantAfterWrites(t *testing.T) {
	m := New(testConfig(C3D))
	now := sim.Time(0)
	// Enough writes to force LLC evictions into the DRAM cache.
	for i := 0; i < 10_000; i++ {
		now = m.Write(now, 0, addr.Addr(i*addr.BlockBytes))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean-cache invariant violated: %v", err)
	}
	// The write-through policy must have produced memory writes.
	if m.Counters().MemWrites == 0 {
		t.Error("C3D dirty LLC evictions should write through to memory")
	}
}

func TestSnoopyProbesRemoteDRAMCaches(t *testing.T) {
	m := New(testConfig(Snoopy))
	m.Read(0, 0, addrHomedAt(1, 0))
	c := m.Counters()
	if c.RemoteDRAMProbes == 0 {
		t.Error("a snoopy miss must probe every remote DRAM cache")
	}
	// C3D never probes remote DRAM caches on reads.
	mc := New(testConfig(C3D))
	mc.Read(0, 0, addrHomedAt(1, 0))
	if mc.Counters().RemoteDRAMProbes != 0 {
		t.Error("C3D read misses must bypass remote DRAM caches")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with an invalid config should panic")
		}
	}()
	cfg := testConfig(C3D)
	cfg.Sockets = 0
	New(cfg)
}

// TestNewAllocatesForUse bounds what building a machine costs before it runs.
// At the default scale 64 the quad-socket machine has a 16 MiB DRAM cache per
// socket, whose tag array alone is 4 MiB of lines. The caches, the miss
// predictors and the sparse directories allocate on first write, so a fresh
// machine of any design holds little beyond their chunk tables: under
// 256 KiB at scale 64 and under 96 KiB at the service's scale 512.
func TestNewAllocatesForUse(t *testing.T) {
	if DefaultConfig(4, C3D).Scale != 64 {
		t.Fatalf("default scale = %d, want 64", DefaultConfig(4, C3D).Scale)
	}
	for _, d := range Designs() {
		for _, tc := range []struct {
			scale int
			limit uint64
		}{{64, 256 << 10}, {512, 96 << 10}} {
			t.Run(fmt.Sprintf("%s/scale=%d", d, tc.scale), func(t *testing.T) {
				cfg := DefaultConfig(4, d)
				cfg.Scale = tc.scale
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m := New(cfg)
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(m)
				if got := after.TotalAlloc - before.TotalAlloc; got >= tc.limit {
					t.Errorf("New allocated %d bytes, want under %d", got, tc.limit)
				}
			})
		}
	}
}

// BenchmarkMachineNew builds the quad-socket C3D machine at the default scale
// and at the service's scale 512: the fixed cost every simulation pays.
func BenchmarkMachineNew(b *testing.B) {
	for _, scale := range []int{64, 512} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			cfg := DefaultConfig(4, C3D)
			cfg.Scale = scale
			for b.Loop() {
				New(cfg)
			}
		})
	}
}
