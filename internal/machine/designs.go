package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// Engine is the per-design coherence behaviour. ReadMiss and WriteMiss handle
// requests that missed the requesting socket's on-chip hierarchy and return
// the time the data (for reads) or the ownership grant (for writes) reaches
// the requesting core. LLCEvict handles an LLC victim.
//
// Engines are built by the design's DesignSpec.NewEngine; they typically hold
// the *Machine and use its shared helpers (sendControl, memRead, ...).
type Engine interface {
	ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time
	WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time
	LLCEvict(now sim.Time, sock *Socket, victim cache.Victim)
}

// SocketDirectories is what a design contributes to each socket: its slice of
// the global directory. The C3D designs use the protocol-aware directory from
// internal/core; the others use the generic structure (either may be nil).
type SocketDirectories struct {
	C3D     *core.Directory
	Generic *coherence.Directory
}

// DesignSpec describes one coherence design: its name, the structural traits
// the rest of the machine keys off, and the factories for its engine and its
// per-socket directory slices.
type DesignSpec struct {
	// Name is the table key ("baseline", "c3d", ...).
	Name Design
	// Evaluated marks the designs compared in Figs. 6-9.
	Evaluated bool
	// HasDRAMCache gives each socket a DRAM cache.
	HasDRAMCache bool
	// CleanDRAMCache keeps the DRAM caches clean (write-through) — C3D's
	// defining property; it selects the dramcache write policy.
	CleanDRAMCache bool
	// NewEngine builds the design's coherence engine for a machine.
	NewEngine func(m *Machine) Engine
	// NewDirectories builds socket id's directory slices from the machine
	// configuration.
	NewDirectories func(socketID int, cfg Config) SocketDirectories
}

// designs is the design table. Its order is the listing order of Designs():
// the evaluation order of the paper's figures. Adding a design is one entry
// here; parsing, listing, machine construction, the SDK, the CLIs and the
// daemon all read this table.
var designs = []DesignSpec{
	// The reference machine without DRAM caches (§V-A).
	{
		Name:           Baseline,
		Evaluated:      true,
		NewEngine:      func(m *Machine) Engine { return &baselineEngine{m: m} },
		NewDirectories: sparseDirectories,
	},
	// Private dirty DRAM caches kept coherent by snooping every remote
	// socket (§III-A).
	{
		Name:           Snoopy,
		Evaluated:      true,
		HasDRAMCache:   true,
		NewEngine:      func(m *Machine) Engine { return &snoopyEngine{m: m} },
		NewDirectories: sparseDirectories,
	},
	// Private dirty DRAM caches tracked by an idealised inclusive full
	// directory (§III-B). The paper models it without recalls (unbounded)
	// and with the baseline's 10-cycle latency, an optimistic assumption it
	// calls out explicitly.
	{
		Name:           FullDir,
		Evaluated:      true,
		HasDRAMCache:   true,
		NewEngine:      func(m *Machine) Engine { return &fullDirEngine{m: m} },
		NewDirectories: unboundedDirectories,
	},
	// Clean private DRAM caches plus a non-inclusive directory with
	// broadcast invalidations (§IV).
	{
		Name:           C3D,
		Evaluated:      true,
		HasDRAMCache:   true,
		CleanDRAMCache: true,
		NewEngine:      func(m *Machine) Engine { return &c3dEngine{m: m} },
		NewDirectories: c3dDirectories,
	},
	// C3D with an idealised full directory that also tracks DRAM cache
	// blocks (§V-A).
	{
		Name:           C3DFullDir,
		Evaluated:      true,
		HasDRAMCache:   true,
		CleanDRAMCache: true,
		NewEngine:      func(m *Machine) Engine { return &c3dEngine{m: m} },
		NewDirectories: c3dFullDirectories,
	},
	// Memory-side DRAM caches fronting each socket's memory: no coherence,
	// no traffic reduction (§II-C).
	{
		Name:           SharedDRAM,
		HasDRAMCache:   true,
		NewEngine:      func(m *Machine) Engine { return &sharedEngine{m: m} },
		NewDirectories: sparseDirectories,
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

// sparseDirectories builds the baseline's sparse, bounded generic
// directory slice — the default directory organisation for designs without
// protocol-aware tracking needs.
func sparseDirectories(socketID int, cfg Config) SocketDirectories {
	return SocketDirectories{Generic: coherence.NewDirectory(coherence.DirConfig{
		Name:    fmt.Sprintf("gdir.%d", socketID),
		Entries: cfg.DirEntries(),
		Ways:    cfg.DirWays,
	})}
}

// unboundedDirectories builds an idealised inclusive directory slice
// with unbounded capacity (no recalls) — the paper's deliberately optimistic
// model of the naive full-directory design.
func unboundedDirectories(socketID int, cfg Config) SocketDirectories {
	return SocketDirectories{Generic: coherence.NewDirectory(coherence.DirConfig{
		Name: fmt.Sprintf("gdir.%d", socketID),
	})}
}
