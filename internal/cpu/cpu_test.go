package cpu

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
	"c3d/internal/sim"
	"c3d/internal/trace"
)

// fakeMem is a MemorySystem with fixed read and write latencies.
type fakeMem struct {
	readLat  sim.Cycles
	writeLat sim.Cycles
	reads    int
	writes   int
}

func (m *fakeMem) Read(now sim.Time, core int, a addr.Addr) sim.Time {
	m.reads++
	return now.Add(m.readLat)
}

func (m *fakeMem) Write(now sim.Time, core int, a addr.Addr) sim.Time {
	m.writes++
	return now.Add(m.writeLat)
}

func TestGapInstructionsCostOneCycleEach(t *testing.T) {
	c := New(Config{ID: 0})
	mem := &fakeMem{readLat: 10}
	c.Execute(trace.Record{Kind: trace.Read, Addr: 0x40, Gap: 7}, mem)
	// 7 gap cycles + 10 load cycles.
	if got := c.Now(); got != 17 {
		t.Errorf("clock = %v, want 17", got)
	}
	s := c.Stats()
	if s.GapCycles != 7 || s.LoadCycles != 10 || s.Instructions != 8 {
		t.Errorf("stats = %+v; want 7 gap cycles, 10 load cycles, 8 instructions", s)
	}
}

func TestLoadsBlockTheCore(t *testing.T) {
	c := New(Config{ID: 1})
	mem := &fakeMem{readLat: 100}
	for i := 0; i < 3; i++ {
		c.Execute(trace.Record{Kind: trace.Read, Addr: addr.Addr(i * 64)}, mem)
	}
	if got := c.Now(); got != 300 {
		t.Errorf("clock = %v, want 300 (blocking loads serialise)", got)
	}
	if c.Stats().Loads != 3 {
		t.Errorf("Loads = %d, want 3", c.Stats().Loads)
	}
}

func TestStoresAreOffTheCriticalPath(t *testing.T) {
	c := New(Config{ID: 2, StoreQueueEntries: 32})
	mem := &fakeMem{writeLat: 500}
	for i := 0; i < 10; i++ {
		c.Execute(trace.Record{Kind: trace.Write, Addr: addr.Addr(i * 64)}, mem)
	}
	// Ten stores that each take 500 cycles to perform, but the core only
	// spends 1 cycle issuing each (store queue has room).
	if got := c.Now(); got != 10 {
		t.Errorf("clock = %v, want 10 (stores should not block)", got)
	}
	if c.PendingStores() != 10 {
		t.Errorf("PendingStores = %d, want 10", c.PendingStores())
	}
	if c.Stats().StoreStallCycles != 0 {
		t.Errorf("StoreStallCycles = %d, want 0", c.Stats().StoreStallCycles)
	}
}

func TestFullStoreQueueStalls(t *testing.T) {
	c := New(Config{ID: 3, StoreQueueEntries: 2})
	mem := &fakeMem{writeLat: 100}
	// First two stores fill the queue (issue at cycles 0 and 1, perform at
	// 100 and 101). The third store must wait for the oldest to perform.
	for i := 0; i < 3; i++ {
		c.Execute(trace.Record{Kind: trace.Write, Addr: addr.Addr(i * 64)}, mem)
	}
	if got := c.Stats().StoreStallCycles; got == 0 {
		t.Error("expected store-queue stall cycles with a 2-entry queue")
	}
	if got := c.Now(); got < 100 {
		t.Errorf("clock = %v, want >= 100 (stalled until the oldest store performed)", got)
	}
}

func TestDrainWaitsForStores(t *testing.T) {
	c := New(Config{ID: 4})
	mem := &fakeMem{writeLat: 1000}
	c.Execute(trace.Record{Kind: trace.Write, Addr: 0x80}, mem)
	if c.Now() >= 1000 {
		t.Fatal("store should not have blocked the core")
	}
	done := c.Drain()
	if done < 1000 {
		t.Errorf("Drain = %v, want >= 1000", done)
	}
	if c.PendingStores() != 0 {
		t.Error("Drain left stores in flight")
	}
	// Draining an empty queue is a no-op.
	if c.Drain() != done {
		t.Error("second Drain changed the clock")
	}
}

func TestStoreQueueRetiresCompletedStores(t *testing.T) {
	c := New(Config{ID: 5, StoreQueueEntries: 2})
	mem := &fakeMem{writeLat: 5}
	// Stores separated by large gaps retire before the next store issues, so
	// the queue never fills and the core never stalls.
	for i := 0; i < 10; i++ {
		c.Execute(trace.Record{Kind: trace.Write, Addr: addr.Addr(i * 64), Gap: 50}, mem)
	}
	if c.Stats().StoreStallCycles != 0 {
		t.Errorf("StoreStallCycles = %d, want 0", c.Stats().StoreStallCycles)
	}
	if c.PendingStores() > 1 {
		t.Errorf("PendingStores = %d, want <= 1", c.PendingStores())
	}
}

func TestResetTiming(t *testing.T) {
	c := New(Config{ID: 6})
	mem := &fakeMem{readLat: 10, writeLat: 10}
	c.Execute(trace.Record{Kind: trace.Read, Addr: 0x40}, mem)
	c.Execute(trace.Record{Kind: trace.Write, Addr: 0x80}, mem)
	c.ResetTiming()
	if c.Now() != 0 || c.PendingStores() != 0 || c.Stats().Instructions != 0 {
		t.Error("ResetTiming did not fully reset the core")
	}
}

func TestStatsIPC(t *testing.T) {
	c := New(Config{ID: 7})
	mem := &fakeMem{readLat: 1}
	c.Execute(trace.Record{Kind: trace.Read, Addr: 0x40, Gap: 3}, mem)
	s := c.Stats()
	// 4 instructions in 4 cycles (3 gap + 1-cycle load).
	if got := s.IPC(); got != 1.0 {
		t.Errorf("IPC = %.2f, want 1.0", got)
	}
	var zero Stats
	if zero.IPC() != 0 {
		t.Error("IPC of an idle core should be 0")
	}
}

func TestDefaultStoreQueueDepth(t *testing.T) {
	c := New(Config{ID: 8})
	if c.cfg.StoreQueueEntries != DefaultStoreQueueEntries {
		t.Errorf("default store queue = %d, want %d", c.cfg.StoreQueueEntries, DefaultStoreQueueEntries)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown record kind should panic")
		}
	}()
	New(Config{ID: 9}).Execute(trace.Record{Kind: trace.Kind(7)}, &fakeMem{})
}

func TestTimeTravelPanics(t *testing.T) {
	bad := &badMem{}
	defer func() {
		if recover() == nil {
			t.Error("a memory system answering in the past should panic")
		}
	}()
	c := New(Config{ID: 10})
	c.Execute(trace.Record{Kind: trace.Read, Addr: 0x40, Gap: 100}, bad)
}

type badMem struct{}

func (badMem) Read(now sim.Time, core int, a addr.Addr) sim.Time  { return 0 }
func (badMem) Write(now sim.Time, core int, a addr.Addr) sim.Time { return 0 }

// Property: the core's clock is monotonically non-decreasing across any mix
// of loads, stores and gaps, and total cycles >= gap cycles.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{ID: 0, StoreQueueEntries: 4})
		mem := &fakeMem{readLat: 7, writeLat: 90}
		prev := sim.Time(0)
		for _, op := range ops {
			rec := trace.Record{
				Kind: trace.Kind(op % 2),
				Addr: addr.Addr(op) * 64,
				Gap:  uint32(op % 5),
			}
			now := c.Execute(rec, mem)
			if now < prev {
				return false
			}
			prev = now
		}
		s := c.Stats()
		return uint64(c.Drain()) >= s.GapCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
