// Package cpu provides the simple timing processor model the paper's own
// simulator uses (§V, Table II): in-order cores retiring one instruction per
// cycle, with blocking loads and a 32-entry store queue that lets stores
// retire off the critical path under TSO. This is deliberately not an
// out-of-order model — the evaluation's figure of merit is memory system
// behaviour, and the 1-IPC core exposes memory latency directly in execution
// time.
package cpu

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/sim"
	"c3d/internal/trace"
)

// MemorySystem is what a core issues its memory accesses to. The machine
// (internal/machine) implements it; tests use small fakes.
type MemorySystem interface {
	// Read performs a load issued by the given core at time now and returns
	// the time the data arrives at the core.
	Read(now sim.Time, core int, a addr.Addr) sim.Time
	// Write performs a store issued by the given core at time now and
	// returns the time the store is globally performed (all invalidations
	// acknowledged, memory or cache updated). The core does not wait for
	// this time; it only constrains store-queue occupancy.
	Write(now sim.Time, core int, a addr.Addr) sim.Time
}

// Config describes one core.
type Config struct {
	// ID is the global core id.
	ID int
	// StoreQueueEntries is the number of in-flight stores the core tolerates
	// before it must stall (32 in Table II).
	StoreQueueEntries int
}

// DefaultStoreQueueEntries is the Table II store-queue depth.
const DefaultStoreQueueEntries = 32

// Stats describes one core's execution.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// GapCycles are cycles spent on non-memory instructions (1 IPC).
	GapCycles uint64
	// LoadCycles are cycles the core was blocked waiting for loads.
	LoadCycles uint64
	// StoreStallCycles are cycles the core was stalled because the store
	// queue was full.
	StoreStallCycles uint64
	// Cycles is the core's total execution time so far.
	Cycles uint64
}

// IPC returns instructions per cycle.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is one in-order, 1-IPC core with a store queue.
type Core struct {
	cfg   Config
	clock sim.Time
	// storeQueue holds the global-performance times of in-flight stores in
	// issue order. Under TSO stores retire in order, so the head is always
	// the oldest.
	storeQueue []sim.Time
	stats      Stats
}

// New builds a core from cfg.
func New(cfg Config) *Core {
	if cfg.StoreQueueEntries <= 0 {
		cfg.StoreQueueEntries = DefaultStoreQueueEntries
	}
	return &Core{cfg: cfg, storeQueue: make([]sim.Time, 0, cfg.StoreQueueEntries)}
}

// Now returns the core's current local time.
func (c *Core) Now() sim.Time { return c.clock }

// Stats returns a snapshot of the execution counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = uint64(c.clock)
	return s
}

// PendingStores returns the number of stores still in flight.
//
//c3dlint:allow unused(store-queue depth the cpu tests check stalls and retirement with)
func (c *Core) PendingStores() int { return len(c.storeQueue) }

// ResetTiming rewinds the core's clock and statistics to zero while keeping
// configuration. Used at the warm-up/measurement boundary; the caller is
// responsible for quiescing the memory system first (draining stores).
func (c *Core) ResetTiming() {
	c.clock = 0
	c.storeQueue = c.storeQueue[:0]
	c.stats = Stats{}
}

// retireStores removes stores that have globally performed by time now.
func (c *Core) retireStores(now sim.Time) {
	i := 0
	for i < len(c.storeQueue) && c.storeQueue[i] <= now {
		i++
	}
	if i > 0 {
		c.storeQueue = append(c.storeQueue[:0], c.storeQueue[i:]...)
	}
}

// Execute runs one trace record on the core against mem, advancing the
// core's local clock. It returns the core's time after the record completes.
func (c *Core) Execute(rec trace.Record, mem MemorySystem) sim.Time {
	// Non-memory instructions preceding the access: 1 cycle each.
	c.clock = c.clock.Add(sim.Cycles(rec.Gap))
	c.stats.GapCycles += uint64(rec.Gap)
	c.stats.Instructions += uint64(rec.Gap) + 1

	switch rec.Kind {
	case trace.Read:
		c.stats.Loads++
		start := c.clock
		done := mem.Read(start, c.cfg.ID, rec.Addr)
		if done < start {
			panic(fmt.Sprintf("cpu %d: memory system returned a read completion %v before issue %v", c.cfg.ID, done, start))
		}
		c.stats.LoadCycles += uint64(done.Sub(start))
		c.clock = done
	case trace.Write:
		c.stats.Stores++
		c.retireStores(c.clock)
		if len(c.storeQueue) >= c.cfg.StoreQueueEntries {
			// TSO: stall until the oldest store has globally performed.
			oldest := c.storeQueue[0]
			if oldest > c.clock {
				c.stats.StoreStallCycles += uint64(oldest.Sub(c.clock))
				c.clock = oldest
			}
			c.retireStores(c.clock)
		}
		done := mem.Write(c.clock, c.cfg.ID, rec.Addr)
		if done < c.clock {
			panic(fmt.Sprintf("cpu %d: memory system returned a write completion %v before issue %v", c.cfg.ID, done, c.clock))
		}
		c.storeQueue = append(c.storeQueue, done)
		// The store instruction itself occupies the pipeline for one cycle;
		// its completion is tracked by the store queue.
		c.clock = c.clock.Add(1)
	default:
		panic(fmt.Sprintf("cpu %d: unknown record kind %d", c.cfg.ID, rec.Kind))
	}
	return c.clock
}

// Drain waits for all in-flight stores to globally perform and returns the
// core's completion time. Call it after the last record of the core's trace
// so execution time includes store completion (the paper's runs end when all
// memory operations have performed).
func (c *Core) Drain() sim.Time {
	if n := len(c.storeQueue); n > 0 {
		last := c.storeQueue[n-1]
		if last > c.clock {
			c.clock = last
		}
		c.storeQueue = c.storeQueue[:0]
	}
	return c.clock
}
