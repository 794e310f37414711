package cache

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

const (
	stS State = 1
	stM State = 2
)

func small() *Cache {
	// 8 sets x 2 ways x 64B = 1 KiB
	return New(Config{Name: "t", SizeBytes: 1024, Ways: 2})
}

func TestGeometry(t *testing.T) {
	c := small()
	if c.Sets() != 8 || c.Ways() != 2 {
		t.Fatalf("geometry: sets=%d ways=%d", c.Sets(), c.Ways())
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero-ways", SizeBytes: 1024, Ways: 0},
		{Name: "zero-size", SizeBytes: 0, Ways: 1},
		{Name: "not-multiple", SizeBytes: 100, Ways: 1},
		{Name: "non-pow2-sets", SizeBytes: 3 * 64, Ways: 1},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s should panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	b := addr.Block(5)
	if _, hit := c.Lookup(b); hit {
		t.Fatal("empty cache should miss")
	}
	c.Fill(b, stS, false)
	line, hit := c.Lookup(b)
	if !hit || line.Block != b || line.State != stS {
		t.Fatalf("expected hit on filled block, got %+v hit=%v", line, hit)
	}
}

func TestFillInvalidStatePanics(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Fill(StateInvalid)")
		}
	}()
	c.Fill(1, StateInvalid, false)
}

func TestLRUEviction(t *testing.T) {
	c := small() // 8 sets, 2 ways; blocks that differ by 8 map to the same set
	b0, b1, b2 := addr.Block(0), addr.Block(8), addr.Block(16)
	c.Fill(b0, stS, false)
	c.Fill(b1, stS, false)
	// Touch b0 so b1 becomes LRU.
	c.Lookup(b0)
	v := c.Fill(b2, stS, false)
	if !v.Valid || v.Block != b1 {
		t.Fatalf("expected b1 evicted, got %+v", v)
	}
	if !c.Contains(b0) || !c.Contains(b2) || c.Contains(b1) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small()
	c.Fill(addr.Block(0), stM, true)
	c.Fill(addr.Block(8), stS, false)
	v := c.Fill(addr.Block(16), stS, false) // evicts LRU = block 0 (dirty)
	if !v.Valid || !v.Dirty || v.Block != 0 {
		t.Fatalf("expected dirty victim of block 0, got %+v", v)
	}
}

func TestFillExistingUpdatesInPlace(t *testing.T) {
	c := small()
	c.Fill(addr.Block(3), stS, false)
	v := c.Fill(addr.Block(3), stM, true)
	if v.Valid {
		t.Fatal("refill of present block should not evict")
	}
	line, _ := c.Probe(addr.Block(3))
	if line.State != stM || !line.Dirty {
		t.Errorf("in-place update failed: %+v", line)
	}
	if c.ValidLines() != 1 {
		t.Errorf("duplicate lines created: %d", c.ValidLines())
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small()
	c.Fill(addr.Block(0), stS, false)
	c.Fill(addr.Block(8), stS, false)
	// Probe b0 (should NOT refresh LRU), then fill a conflicting block:
	// the victim must be b0 because probes don't touch recency.
	c.Probe(addr.Block(0))
	v := c.Fill(addr.Block(16), stS, false)
	if v.Block != 0 {
		t.Errorf("probe perturbed LRU; victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(addr.Block(7), stM, true)
	v := c.Invalidate(addr.Block(7))
	if !v.Valid || !v.Dirty || v.State != stM {
		t.Fatalf("invalidate victim %+v", v)
	}
	if c.Contains(addr.Block(7)) {
		t.Error("block still present after invalidate")
	}
	if v2 := c.Invalidate(addr.Block(7)); v2.Valid {
		t.Error("double invalidate should report absent")
	}
}

func TestSetState(t *testing.T) {
	c := small()
	c.Fill(addr.Block(9), stS, false)
	if !c.SetState(addr.Block(9), stM) {
		t.Fatal("SetState on present block returned false")
	}
	line, _ := c.Probe(addr.Block(9))
	if line.State != stM {
		t.Error("state not updated")
	}
	if c.SetState(addr.Block(100), stM) {
		t.Error("SetState on absent block returned true")
	}
	// Setting invalid removes the block.
	if !c.SetState(addr.Block(9), StateInvalid) {
		t.Error("SetState(StateInvalid) on present block returned false")
	}
	if c.Contains(addr.Block(9)) {
		t.Error("SetState(StateInvalid) did not remove the block")
	}
}

func TestCleanBlock(t *testing.T) {
	c := small()
	c.Fill(addr.Block(2), stM, true)
	if !c.CleanBlock(addr.Block(2)) {
		t.Fatal("CleanBlock on present block returned false")
	}
	line, _ := c.Probe(addr.Block(2))
	if line.Dirty {
		t.Error("dirty bit not cleared")
	}
	if c.CleanBlock(addr.Block(3)) {
		t.Error("CleanBlock on absent block returned true")
	}
}

func TestForEach(t *testing.T) {
	c := small()
	c.Fill(addr.Block(1), stS, false)
	c.Fill(addr.Block(2), stM, true)
	c.Fill(addr.Block(3), stM, true)
	count := 0
	c.ForEach(func(Line) { count++ })
	if count != 3 {
		t.Errorf("ForEach visited %d lines", count)
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{Name: "dm", SizeBytes: 4 * 64, Ways: 1})
	if c.Sets() != 4 || c.Ways() != 1 {
		t.Fatalf("geometry %d sets %d ways", c.Sets(), c.Ways())
	}
	c.Fill(addr.Block(0), stS, false)
	v := c.Fill(addr.Block(4), stS, false) // conflicts with block 0
	if !v.Valid || v.Block != 0 {
		t.Fatalf("direct-mapped conflict eviction failed: %+v", v)
	}
}

// Property: the number of valid lines never exceeds capacity, and a just-filled
// block is always present.
func TestOccupancyProperty(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(Config{Name: "p", SizeBytes: 2048, Ways: 4})
		capacity := c.Sets() * c.Ways()
		for _, b := range blocks {
			blk := addr.Block(b)
			c.Fill(blk, stS, b%3 == 0)
			if !c.Contains(blk) {
				return false
			}
			if c.ValidLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fills+invalidate bookkeeping — a block is present iff it was
// filled after its last invalidation and not evicted; we check the weaker but
// still useful invariant that Lookup after Fill hits and Lookup after
// Invalidate misses.
func TestFillInvalidateProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "p", SizeBytes: 1024, Ways: 2})
		for _, op := range ops {
			blk := addr.Block(op % 64)
			if op%2 == 0 {
				c.Fill(blk, stS, false)
				if !c.Contains(blk) {
					return false
				}
			} else {
				c.Invalidate(blk)
				if c.Contains(blk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	b.ReportAllocs()
	c := New(Config{Name: "bench", SizeBytes: 1 << 20, Ways: 16})
	for i := 0; i < 1024; i++ {
		c.Fill(addr.Block(i), stS, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addr.Block(i % 1024))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	b.ReportAllocs()
	c := New(Config{Name: "bench", SizeBytes: 1 << 20, Ways: 16})
	for i := 0; i < 1024; i++ {
		c.Fill(addr.Block(i), stS, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addr.Block(1 << 30))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	b.ReportAllocs()
	c := New(Config{Name: "bench", SizeBytes: 1 << 18, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(addr.Block(i), stS, false)
	}
}
