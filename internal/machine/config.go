// Package machine composes the substrates — cores, caches, DRAM caches,
// directories, interconnect, memory — into a multi-socket NUMA machine and
// runs workload traces through it under one of the paper's six coherence
// designs (§V-A): the baseline without DRAM caches, the naive snoopy and
// full-directory DRAM cache designs, C3D, the idealised c3d-full-dir, and a
// shared (memory-side) DRAM cache organisation.
//
// Designs are a static table: each entry of designs bundles a design's
// structural traits, its directory (organisation and Fig. 5 traits) and the
// factory for its coherence engine, and machine construction dispatches
// purely through it — there is no design switch to extend — so a new design
// is one entry in that table. A difference between designs is stated once:
// every directory moves by core.Transition with its design's traits, the
// shared design is the baseline engine whose home memory port (homeRead,
// homeWrite) goes through a memory-side DRAM cache, c3d and c3d-full-dir
// share one engine over different directories, and the message legs the
// engines have in common are Machine helpers (forwardRead, forwardWrite,
// serveRead, serveWrite, invalidateSharer, fillVictimCache). Fabric topologies are interconnect's
// table in the same shape, selected by Config.Topology.
//
// The timing model follows the paper's own simulator: simple 1-IPC in-order
// cores with blocking loads and a store queue, and a memory system whose
// latency is composed from component latencies (Table II) plus queueing at
// bandwidth-regulated resources. Coherence state changes are applied
// atomically at the time a request is handled; the transient-state races are
// verified separately by the protocol model checker (internal/core +
// internal/mc).
package machine

import (
	"fmt"

	"c3d/internal/dramcache"
	"c3d/internal/interconnect"
	"c3d/internal/numa"
	"c3d/internal/sim"
)

// Design names a coherence design. The value is the key of the design table:
// comparing, printing and parsing all go through the same string (machine
// configs, experiment campaigns, CLI flags, the daemon's JobSpec).
type Design string

// The built-in designs (§V-A).
const (
	// Baseline is the reference machine without DRAM caches (§V-A).
	Baseline Design = "baseline"
	// Snoopy adds private dirty DRAM caches kept coherent by snooping every
	// remote socket on a local miss (§III-A).
	Snoopy Design = "snoopy"
	// FullDir adds private dirty DRAM caches tracked by an idealised
	// inclusive full directory (§III-B).
	FullDir Design = "full-dir"
	// C3D is the proposed design: clean private DRAM caches plus a
	// non-inclusive directory with broadcast invalidations for untracked
	// writes (§IV).
	C3D Design = "c3d"
	// C3DFullDir is C3D with an idealised full directory that also tracks
	// DRAM cache blocks, eliminating broadcasts (§V-A).
	C3DFullDir Design = "c3d-full-dir"
	// SharedDRAM places each DRAM cache in front of its socket's memory as a
	// memory-side cache: no replication, no coherence, but also no reduction
	// in off-socket traffic (§II-C).
	SharedDRAM Design = "shared"
)

func (d Design) String() string { return string(d) }

// ParseDesign converts a design name back into a Design. Only names in the
// design table parse.
func ParseDesign(s string) (Design, error) {
	if _, err := designSpec(Design(s)); err != nil {
		return "", err
	}
	return Design(s), nil
}

// Designs returns every design in table order: the evaluation order of the
// paper's figures.
func Designs() []Design {
	out := make([]Design, len(designs))
	for i, spec := range designs {
		out[i] = spec.Name
	}
	return out
}

// EvaluatedDesigns returns the designs compared in Figs. 6-9 (the entries
// with Evaluated set): the baseline plus the four DRAM cache coherence
// schemes.
func EvaluatedDesigns() []Design {
	var out []Design
	for _, spec := range designs {
		if spec.Evaluated {
			out = append(out, spec.Name)
		}
	}
	return out
}

// HasDRAMCache reports whether the design includes per-socket DRAM caches
// (false for unknown designs).
func (d Design) HasDRAMCache() bool {
	spec, err := designSpec(d)
	return err == nil && spec.HasDRAMCache
}

// CleanDRAMCache reports whether the design keeps its DRAM caches clean
// (write-through), which is C3D's defining property.
func (d Design) CleanDRAMCache() bool {
	spec, err := designSpec(d)
	return err == nil && spec.CleanDRAMCache
}

// Config describes the simulated machine. All capacities are given at paper
// scale (Table II); Scale divides them (and should divide the workload's
// footprint identically — workload.Options.Scale) so the capacity ratios are
// preserved while the simulation stays laptop-sized.
type Config struct {
	// Design selects the coherence scheme.
	Design Design
	// Sockets and CoresPerSocket shape the machine: 4×8 and 2×16 are the
	// paper's two configurations (32 cores total either way); the scaling
	// study stretches Sockets to 16.
	Sockets        int
	CoresPerSocket int
	// Topology selects the inter-socket fabric. Empty means the socket
	// count's default (point-to-point for 1-2 sockets, ring beyond) —
	// exactly the paper's two shapes.
	Topology interconnect.Topology
	// MemPolicy is the NUMA page placement policy.
	MemPolicy numa.Policy
	// Scale divides LLC, DRAM cache and directory capacities.
	Scale int

	// Core parameters.
	StoreQueueEntries int

	// L1 parameters (private per core). The L1 is small enough that it is
	// not scaled.
	L1SizeBytes uint64
	L1Ways      int
	L1Latency   sim.Cycles

	// LLC parameters (shared per socket).
	LLCSizeBytes   uint64
	LLCWays        int
	LLCTagLatency  sim.Cycles
	LLCDataLatency sim.Cycles

	// Global directory parameters (per-socket slice). Provisioning is the
	// sparse over-provisioning factor relative to the LLC capacity in
	// blocks; 0 gives an unbounded directory.
	DirProvisioning  float64
	DirWays          int
	GlobalDirLatency sim.Cycles

	// DRAM cache parameters (per socket).
	DRAMCacheSizeBytes    uint64
	DRAMCacheLatencyNs    float64
	DRAMCacheChannels     int
	DRAMCacheBandwidthGBs float64
	PredictorEntries      int

	// Main memory parameters (per socket).
	MemLatencyNs    float64
	MemChannels     int
	MemBandwidthGBs float64

	// Interconnect parameters.
	HopLatencyNs     float64
	LinkBandwidthGBs float64

	// §IV-D broadcast filter (only meaningful for the C3D design).
	EnableBroadcastFilter bool

	// Idealisation knobs for the Fig. 2 bottleneck analysis.
	ZeroHopLatency     bool
	InfiniteMemBW      bool
	InfiniteLinkBW     bool
	InfiniteDRAMCacheB bool
}

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// DefaultConfig returns the Table II machine for the given socket count and
// design, at the default scale shared with workload.DefaultScale. The
// paper's two shapes (2×16 and 4×8) keep their 32-core total, as does any
// socket count dividing 32; other counts get the paper's 8 cores per socket.
// The fabric topology is left at the socket count's default (Config.Topology
// empty); set it explicitly for the generalized mesh/fully-connected shapes.
func DefaultConfig(sockets int, design Design) Config {
	coresPerSocket := 8
	if sockets > 0 && 32%sockets == 0 {
		coresPerSocket = 32 / sockets
	}
	return Config{
		Design:         design,
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		MemPolicy:      numa.FirstTouch2,
		Scale:          64,

		StoreQueueEntries: 32,

		L1SizeBytes: 64 * kib,
		L1Ways:      8,
		L1Latency:   3,

		LLCSizeBytes:   16 * mib,
		LLCWays:        16,
		LLCTagLatency:  7,
		LLCDataLatency: 13,

		DirProvisioning:  2,
		DirWays:          32,
		GlobalDirLatency: 10,

		DRAMCacheSizeBytes:    1 * gib,
		DRAMCacheLatencyNs:    40,
		DRAMCacheChannels:     8,
		DRAMCacheBandwidthGBs: 12.8,
		PredictorEntries:      4096,

		MemLatencyNs:    50,
		MemChannels:     2,
		MemBandwidthGBs: 12.8,

		HopLatencyNs:     20,
		LinkBandwidthGBs: 25.6,
	}
}

// Validate checks that the configuration is internally consistent: the
// design and topology must be known, the selected (or default) topology
// must host the socket count, and the capacities must be sane.
func (c Config) Validate() error {
	switch {
	case c.Sockets < 1:
		return fmt.Errorf("machine: need at least one socket, got %d", c.Sockets)
	case c.CoresPerSocket < 1:
		return fmt.Errorf("machine: need at least one core per socket, got %d", c.CoresPerSocket)
	case c.Scale < 1:
		return fmt.Errorf("machine: scale must be >= 1, got %d", c.Scale)
	case c.L1SizeBytes == 0 || c.LLCSizeBytes == 0:
		return fmt.Errorf("machine: cache sizes must be non-zero")
	case c.DirProvisioning < 0:
		return fmt.Errorf("machine: negative directory provisioning")
	}
	if _, err := designSpec(c.Design); err != nil {
		return err
	}
	if c.Design.HasDRAMCache() && c.DRAMCacheSizeBytes == 0 {
		return fmt.Errorf("machine: design %v needs a DRAM cache size", c.Design)
	}
	if _, err := c.fabricConfig(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// ResolvedTopology returns the fabric topology the machine will use: the
// explicit Config.Topology, or the socket count's default when unset.
func (c Config) ResolvedTopology() (interconnect.Topology, error) {
	if c.Topology != "" {
		if err := interconnect.SupportsSockets(c.Topology, c.Sockets); err != nil {
			return "", err
		}
		return c.Topology, nil
	}
	return interconnect.DefaultTopology(c.Sockets)
}

// fabricConfig resolves the interconnect configuration: the selected (or
// default) topology with the machine's Table II hop latency and link
// bandwidth.
func (c Config) fabricConfig() (interconnect.Config, error) {
	topo, err := c.ResolvedTopology()
	if err != nil {
		return interconnect.Config{}, err
	}
	icCfg := interconnect.Config{
		Sockets:          c.Sockets,
		Topology:         topo,
		HopLatency:       sim.NsToCycles(c.HopLatencyNs),
		LinkBandwidthGBs: c.LinkBandwidthGBs,
	}
	return icCfg, icCfg.Validate()
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.Sockets * c.CoresPerSocket }

// ScaledLLCSize returns the LLC capacity after applying the scale factor.
func (c Config) ScaledLLCSize() uint64 { return scaleCapacity(c.LLCSizeBytes, c.Scale) }

// ScaledL1Size returns the per-core L1 capacity. The L1 is small enough that
// it is left at its native size for scales up to the default 64; beyond that
// it shrinks proportionally (with a 4 KiB floor) so the hierarchy ordering
// L1 < LLC < DRAM cache is preserved at aggressive scales.
func (c Config) ScaledL1Size() uint64 {
	if c.Scale <= 64 {
		return c.L1SizeBytes
	}
	scaled := c.L1SizeBytes * 64 / uint64(c.Scale)
	const floor = 4 * kib
	if scaled < floor {
		scaled = floor
	}
	// Keep a power of two for valid cache geometry.
	p := uint64(1)
	for p*2 <= scaled {
		p *= 2
	}
	return p
}

// ScaledDRAMCacheSize returns the DRAM cache capacity after scaling.
func (c Config) ScaledDRAMCacheSize() uint64 { return scaleCapacity(c.DRAMCacheSizeBytes, c.Scale) }

// scaleCapacity divides a capacity, keeping it a power-of-two multiple of the
// block size so cache geometry stays valid, and never below 16 KiB.
func scaleCapacity(bytes uint64, scale int) uint64 {
	s := bytes / uint64(scale)
	const floor = 16 * kib
	if s < floor {
		s = floor
	}
	// Round down to a power of two (cache geometry requires power-of-two
	// sets; with power-of-two ways any power-of-two capacity works).
	p := uint64(1)
	for p*2 <= s {
		p *= 2
	}
	return p
}

// DirEntries returns the number of global-directory entries per socket slice
// after scaling (0 means unbounded).
func (c Config) DirEntries() int {
	if c.DirProvisioning <= 0 {
		return 0
	}
	llcBlocks := c.ScaledLLCSize() / 64
	entries := int(float64(llcBlocks) * c.DirProvisioning)
	// Round down to a multiple of DirWays with a power-of-two set count.
	ways := c.DirWays
	if ways <= 0 {
		ways = 1
	}
	sets := 1
	for sets*2*ways <= entries {
		sets *= 2
	}
	return sets * ways
}

// dramCachePolicy maps the design to the DRAM cache write policy.
func (c Config) dramCachePolicy() dramcache.Policy {
	if c.Design.CleanDRAMCache() {
		return dramcache.Clean
	}
	return dramcache.Dirty
}
