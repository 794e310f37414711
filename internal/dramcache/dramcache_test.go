package dramcache

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

const testMB = 1 << 20

func newTestCache(t *testing.T, policy Policy) *Cache {
	t.Helper()
	cfg := DefaultConfig("dram$test", 1*testMB, policy)
	return New(cfg)
}

// DefaultConfig returns the Table II DRAM cache configuration with the given
// capacity and policy, which the tests build from.
func DefaultConfig(name string, sizeBytes uint64, policy Policy) Config {
	return Config{
		Name:                name,
		SizeBytes:           sizeBytes,
		AccessLatency:       sim.NsToCycles(40),
		Channels:            8,
		ChannelBandwidthGBs: 12.8,
		PredictorEntries:    4096,
		Policy:              policy,
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig("dram$0", 1<<30, Clean)
	if cfg.AccessLatency != sim.NsToCycles(40) {
		t.Errorf("AccessLatency = %v, want 40ns", cfg.AccessLatency)
	}
	if cfg.Channels != 8 || cfg.ChannelBandwidthGBs != 12.8 {
		t.Errorf("channels = %d @ %.1f GB/s, want 8 @ 12.8", cfg.Channels, cfg.ChannelBandwidthGBs)
	}
	if cfg.PredictorEntries != 4096 {
		t.Errorf("PredictorEntries = %d, want 4096", cfg.PredictorEntries)
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(1234)
	res := c.Access(0, b, false)
	if res.Hit {
		t.Fatal("cold cache should miss")
	}
	if res.PredictedHit {
		t.Fatal("cold predictor should predict miss")
	}
	if res.Done != 0 {
		t.Fatalf("correctly predicted miss should not delay the next level, Done = %v", res.Done)
	}
	c.Fill(0, b, coherence.LineShared, false)
	res = c.Access(0, b, false)
	if !res.Hit {
		t.Fatal("filled block should hit")
	}
	if res.Done < sim.Time(c.cfg.AccessLatency) {
		t.Errorf("hit Done = %v, want at least the access latency %v", res.Done, c.cfg.AccessLatency)
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadHits != 1 {
		t.Errorf("stats = %+v; want 2 reads, 1 read hit", s)
	}
}

func TestFalseHitPaysTagCheck(t *testing.T) {
	c := newTestCache(t, Clean)
	base := addr.Block(0)
	// Fill one block so its page region predicts hit, then access a
	// different block of the same page that is not resident: the miss is
	// discovered only after the DRAM tag check.
	c.Fill(0, base, coherence.LineShared, false)
	res := c.Access(0, base+1, false)
	if res.Hit {
		t.Fatal("block was never filled; must miss")
	}
	if !res.PredictedHit {
		t.Fatal("same-region block should predict hit")
	}
	if res.Done < sim.Time(c.cfg.AccessLatency) {
		t.Errorf("mispredicted miss Done = %v, want at least one access latency", res.Done)
	}
	if c.Stats().Predictor.FalseHits != 1 {
		t.Errorf("FalseHits = %d, want 1", c.Stats().Predictor.FalseHits)
	}
}

func TestCleanPolicyNeverDirty(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(7)
	// Even when asked to fill dirty/Modified, a clean cache stores a clean
	// Shared copy.
	c.Fill(0, b, coherence.LineModified, true)
	line, ok, _ := c.Probe(0, b)
	if !ok {
		t.Fatal("block should be resident")
	}
	if line.Dirty {
		t.Error("clean cache stored a dirty line")
	}
	if line.State != coherence.LineShared {
		t.Errorf("state = %d, want Shared (%d)", line.State, coherence.LineShared)
	}
	// Write hits do not mark the line dirty either.
	c.Access(0, b, true)
	if c.HasDirtyBlocks() {
		t.Error("write hit made a clean cache dirty")
	}
}

func TestDirtyPolicyMarksDirty(t *testing.T) {
	c := newTestCache(t, Dirty)
	b := addr.Block(9)
	c.Fill(0, b, coherence.LineShared, false)
	c.Access(0, b, true)
	line, ok, _ := c.Probe(0, b)
	if !ok || !line.Dirty {
		t.Error("write hit under the Dirty policy should mark the line dirty")
	}
	if line.State != coherence.LineModified {
		t.Errorf("state = %d, want Modified (%d)", line.State, coherence.LineModified)
	}
	if !c.HasDirtyBlocks() {
		t.Error("HasDirtyBlocks should report the dirty line")
	}
}

func TestFillEvictionReportsVictim(t *testing.T) {
	// Direct-mapped: two blocks mapping to the same set evict each other.
	cfg := DefaultConfig("tiny", 64*addr.BlockBytes, Dirty) // 64 sets, 1 way
	c := New(cfg)
	a := addr.Block(0)
	b := addr.Block(64) // same set as a
	c.Fill(0, a, coherence.LineModified, true)
	res := c.Fill(0, b, coherence.LineShared, false)
	if !res.Victim.Valid || res.Victim.Block != a {
		t.Fatalf("victim = %+v, want eviction of block %d", res.Victim, a)
	}
	if !res.Victim.Dirty {
		t.Error("dirty victim should be reported dirty so the engine can write it back")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.DirtyEvicts != 1 {
		t.Errorf("stats = %+v; want 1 eviction, 1 dirty", s)
	}
}

func TestInvalidateInformsPredictor(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(77)
	c.Fill(0, b, coherence.LineShared, false)
	v := c.Invalidate(b)
	if !v.Valid {
		t.Fatal("Invalidate should report the block was present")
	}
	if c.Contains(b) {
		t.Fatal("block still resident after Invalidate")
	}
	// The region no longer predicts hit once its only block is gone.
	res := c.Access(0, b, false)
	if res.PredictedHit {
		t.Error("predictor was not informed of the invalidation")
	}
	if c.Invalidate(b).Valid {
		t.Error("second Invalidate should report absence")
	}
}

func TestProbeDoesNotPerturbStats(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(11)
	c.Fill(0, b, coherence.LineShared, false)
	before := c.Stats()
	_, ok, done := c.Probe(0, b)
	if !ok {
		t.Fatal("Probe should find the block")
	}
	if done < sim.Time(c.cfg.AccessLatency) {
		t.Error("Probe should cost a DRAM cache access")
	}
	after := c.Stats()
	if before.Reads != after.Reads || before.Writes != after.Writes ||
		before.Predictor.Predictions != after.Predictor.Predictions {
		t.Error("Probe changed access or predictor statistics")
	}
}

func TestChannelBandwidthQueues(t *testing.T) {
	cfg := DefaultConfig("bw", 1*testMB, Clean)
	cfg.Channels = 1
	cfg.ChannelBandwidthGBs = 0.001 // absurdly slow so queueing is visible
	c := New(cfg)
	b := addr.Block(1)
	c.Fill(0, b, coherence.LineShared, false)
	first := c.Access(0, b, false)
	second := c.Access(0, b, false)
	if second.Done <= first.Done {
		t.Errorf("second access (%v) should queue behind the first (%v)", second.Done, first.Done)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(5)
	c.Fill(0, b, coherence.LineShared, false)
	c.Access(0, b, false)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats did not clear access counters")
	}
	if !c.Contains(b) {
		t.Error("ResetStats evicted cache contents")
	}
}

// Property: under the Clean policy, no sequence of fills and write accesses
// ever leaves a dirty block in the cache.
func TestCleanInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(DefaultConfig("prop", 256*addr.BlockBytes, Clean))
		for _, op := range ops {
			b := addr.Block(op % 512)
			switch op % 3 {
			case 0:
				c.Fill(0, b, coherence.LineModified, true)
			case 1:
				c.Access(0, b, true)
			case 2:
				c.Access(0, b, false)
			}
		}
		return !c.HasDirtyBlocks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident lines never exceeds the capacity in
// blocks.
func TestCapacityProperty(t *testing.T) {
	const capBlocks = 128
	f := func(ops []uint16) bool {
		c := New(DefaultConfig("prop", capBlocks*addr.BlockBytes, Dirty))
		for _, op := range ops {
			c.Fill(0, addr.Block(op), coherence.LineShared, false)
		}
		return c.ValidLines() <= capBlocks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkAccessHit guards the per-access hot path: a steady-state DRAM
// cache access (predict, tag lookup, channel occupancy) must not allocate.
func BenchmarkAccessHit(b *testing.B) {
	b.ReportAllocs()
	c := New(DefaultConfig("bench", 64*testMB, Clean))
	for i := 0; i < 4096; i++ {
		c.Fill(0, addr.Block(i), coherence.LineShared, false)
	}
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Access(now, addr.Block(i%4096), i%3 == 0)
		now = res.Done
	}
}

// BenchmarkFillChurn guards the fill/evict path of a full direct-mapped
// cache, which exercises predictor updates and victim accounting.
func BenchmarkFillChurn(b *testing.B) {
	b.ReportAllocs()
	c := New(DefaultConfig("bench", 16*testMB, Clean))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(0, addr.Block(i), coherence.LineShared, false)
	}
}
