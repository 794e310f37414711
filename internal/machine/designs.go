package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// Engine is the per-design coherence behaviour. ReadMiss and WriteMiss handle
// requests that missed the requesting socket's on-chip hierarchy and return
// the time the data (for reads) or the ownership grant (for writes) reaches
// the requesting core. LLCEvict handles an LLC victim.
//
// Engines are built by the design's DesignSpec.NewEngine; they hold the
// *Machine and state each message leg through its shared helpers
// (sendControl, homeRead, forwardRead, invalidateSharer, ...).
type Engine interface {
	ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time
	WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time
	LLCEvict(now sim.Time, sock *Socket, victim cache.Victim)
}

// dirKind is how a design organises its slices of the global
// directory, one at each home socket.
type dirKind uint8

const (
	// noDirectory builds no slice: snoops replace the directory.
	noDirectory dirKind = iota
	// sparseDirectory is Table II's 2x-provisioned, 32-way slice, whose
	// evictions recall the copies they track.
	sparseDirectory
	// unboundedDirectory is an idealised slice with unbounded capacity, so
	// no recalls: the paper's deliberately optimistic full directories.
	unboundedDirectory
)

// DesignSpec describes one coherence design: its name, the structural traits
// the rest of the machine keys off, its directory, and the factory for its
// engine.
type DesignSpec struct {
	// Name is the table key ("baseline", "c3d", ...).
	Name Design
	// Evaluated marks the designs compared in Figs. 6-9.
	Evaluated bool
	// HasDRAMCache gives each socket a DRAM cache. Unless MemorySide is
	// set, it is private: a victim cache beside the socket's LLC.
	HasDRAMCache bool
	// MemorySide places each DRAM cache in front of its socket's memory
	// instead: it caches only blocks homed there, and the home port
	// (homeRead, homeWrite) is the only path into it.
	MemorySide bool
	// CleanDRAMCache keeps the DRAM caches clean (write-through) — C3D's
	// defining property; it selects the dramcache write policy.
	CleanDRAMCache bool
	// Directory is the organisation of each socket's directory slice.
	Directory dirKind
	// Dir holds the traits of the slices' Fig. 5 transitions
	// (core.Transition).
	Dir core.DirTraits
	// NewEngine builds the design's coherence engine for a machine.
	NewEngine func(m *Machine) Engine
}

// baselineDir is the baseline's directory: inclusive of the on-chip caches,
// which it alone covers, so a write-back drops the entry.
var baselineDir = core.DirTraits{AllocOnGetS: true, PutX: core.PutXRemoves, Stale: core.StaleTrustsRequester}

// designs is the design table. Its order is the listing order of Designs():
// the evaluation order of the paper's figures. Adding a design is one entry
// here; parsing, listing, machine construction, the SDK, the CLIs and the
// daemon all read this table.
var designs = []DesignSpec{
	// The reference machine without DRAM caches (§V-A).
	{
		Name:      Baseline,
		Evaluated: true,
		Directory: sparseDirectory,
		Dir:       baselineDir,
		NewEngine: func(m *Machine) Engine { return &baselineEngine{m: m} },
	},
	// Private dirty DRAM caches kept coherent by snooping every remote
	// socket (§III-A). Snoops replace the directory: the home charges only
	// the directory latency, and no slice is built.
	{
		Name:         Snoopy,
		Evaluated:    true,
		HasDRAMCache: true,
		NewEngine:    func(m *Machine) Engine { return &snoopyEngine{m: m} },
	},
	// Private dirty DRAM caches tracked by an idealised inclusive full
	// directory (§III-B). The paper models it without recalls (unbounded)
	// and with the baseline's 10-cycle latency, an optimistic assumption it
	// calls out explicitly. Being inclusive, it hears of every DRAM-cache
	// eviction, and drops just the evicting socket from the sharers.
	{
		Name:         FullDir,
		Evaluated:    true,
		HasDRAMCache: true,
		Directory:    unboundedDirectory,
		Dir:          core.DirTraits{AllocOnGetS: true, PutX: core.PutXDropsSender, Stale: core.StaleTrustsRequester},
		NewEngine:    func(m *Machine) Engine { return &fullDirEngine{m: m} },
	},
	// Clean private DRAM caches plus a non-inclusive directory with
	// broadcast invalidations (§IV), sized like the baseline's and
	// tracking on-chip copies only.
	{
		Name:           C3D,
		Evaluated:      true,
		HasDRAMCache:   true,
		CleanDRAMCache: true,
		Directory:      sparseDirectory,
		Dir:            core.DirTraits{BroadcastUntracked: true, PutX: core.PutXRemoves, Stale: core.StaleKeepsOwner},
		NewEngine:      func(m *Machine) Engine { return &c3dEngine{m: m} },
	},
	// C3D with an idealised full directory that also tracks DRAM cache
	// blocks (§V-A): unbounded, allocating on reads, and keeping a written
	// back block Shared, so it never broadcasts.
	{
		Name:           C3DFullDir,
		Evaluated:      true,
		HasDRAMCache:   true,
		CleanDRAMCache: true,
		Directory:      unboundedDirectory,
		Dir:            core.DirTraits{AllocOnGetS: true, PutX: core.PutXLeavesShared, Stale: core.StaleKeepsOwner},
		NewEngine:      func(m *Machine) Engine { return &c3dEngine{m: m} },
	},
	// Memory-side DRAM caches fronting each socket's memory (§II-C). An
	// address lives in exactly one of them, so they need no coherence, and
	// on-chip coherence is the baseline's: the design is the baseline
	// engine with its home port through the DRAM cache. Every LLC miss to a
	// remote home still crosses the interconnect — it filters memory
	// accesses, not off-socket traffic.
	{
		Name:         SharedDRAM,
		HasDRAMCache: true,
		MemorySide:   true,
		Directory:    sparseDirectory,
		Dir:          baselineDir,
		NewEngine:    func(m *Machine) Engine { return &baselineEngine{m: m} },
	},
}

// designSpec returns the table entry for d.
func designSpec(d Design) (DesignSpec, error) {
	for _, spec := range designs {
		if spec.Name == d {
			return spec, nil
		}
	}
	return DesignSpec{}, fmt.Errorf("machine: unknown design %q (known: %v)", string(d), Designs())
}

// mustDesignSpec is designSpec for callers that run after Config.Validate.
func mustDesignSpec(d Design) DesignSpec {
	spec, err := designSpec(d)
	if err != nil {
		panic(err.Error())
	}
	return spec
}
