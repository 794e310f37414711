package machine

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"c3d/internal/cpu"
	"c3d/internal/dramcache"
	"c3d/internal/interconnect"
	"c3d/internal/numa"
	"c3d/internal/stats"
)

// RunResult is the outcome of running one workload trace on one machine
// configuration. All counters cover the measured region only (after warm-up).
type RunResult struct {
	Design   Design
	Workload string
	Sockets  int
	Cores    int
	Policy   numa.Policy
	// Topology is the fabric topology the run used (always resolved — the
	// config's default-selection empty value never appears here).
	Topology interconnect.Topology

	// Cycles is the execution time of the measured region: the largest
	// per-core completion time, stores drained.
	Cycles uint64
	// Instructions is the total instruction count across cores (memory
	// accesses plus gap instructions).
	Instructions uint64

	// Machine-level counters.
	Counters Counters

	// InterSocketBytes is the total traffic that crossed the inter-socket
	// fabric, split by packet class.
	InterSocketBytes        uint64
	InterSocketControlBytes uint64
	InterSocketDataBytes    uint64
	InterSocketMessages     uint64

	// DRAMCacheHitRate is the aggregate hit rate across all private DRAM
	// caches (0 for the baseline design).
	DRAMCacheHitRate float64
	// DRAMCacheStats aggregates per-socket DRAM cache counters. Predictor
	// statistics are not aggregated, so Predictor is always zero here.
	DRAMCacheStats dramcache.Stats

	// PerCore holds each core's execution statistics.
	PerCore []cpu.Stats

	// PageStats describes the NUMA placement that the run used.
	PageStats numa.Stats

	// BroadcastFilterElided counts broadcasts removed by the §IV-D filter
	// (only non-zero when the filter is enabled).
	BroadcastFilterElided uint64

	// Sampling is present only for sampled runs: the schedule used, the
	// sampled/total access counts, and the 95% confidence half-width of each
	// derived metric. Full-detail runs omit it, so their JSON is unchanged.
	Sampling *SamplingResult `json:",omitempty"`
}

// tally is every count a RunResult reports. The field declarations of the
// structs it holds are the counter schema: apply reaches each top-level
// uint64 of them, so a counter added to any of these structs is differenced,
// summed and extrapolated by sampled runs without further edits.
type tally struct {
	Counters
	Fabric interconnect.Stats
	// DRAM sums the per-socket DRAM cache statistics.
	DRAM dramcache.Stats
	// LatCount and LatTotal are the load-latency observations and their sum.
	LatCount, LatTotal uint64
	// Elided counts broadcasts removed by the §IV-D filter.
	Elided uint64
}

// apply sets each count c of t to op(c, u's count).
func (t *tally) apply(u tally, op func(a, b uint64) uint64) {
	eachU64(t, u, op)
	eachU64(&t.Counters, u.Counters, op)
	eachU64(&t.Fabric, u.Fabric, op)
	eachU64(&t.DRAM, u.DRAM, op)
}

func add(a, b uint64) uint64 { return a + b }
func sub(a, b uint64) uint64 { return a - b }

// eachU64 sets each top-level uint64 field f of *dst to op(f, src's f). It
// neither recurses into nested structs nor touches floats: derived values
// such as means are recomputed from the counts instead.
func eachU64[T any](dst *T, src T, op func(a, b uint64) uint64) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := range d.NumField() {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(op(f.Uint(), s.Field(i).Uint()))
		}
	}
}

// tally reads the machine's counts since the last reset or warm-up boundary.
func (m *Machine) tally() tally {
	t := tally{
		Counters: m.counters,
		Fabric:   m.fabric.Stats(),
		LatCount: m.loadLatency.Count(),
		LatTotal: m.loadLatency.Total(),
		Elided:   m.filter.Elided(),
	}
	for _, s := range m.sockets {
		if s.c3dDir != nil {
			ds := s.c3dDir.Stats()
			t.Broadcasts += ds.Broadcasts
			t.BroadcastsAvoided += ds.BroadcastsAvd
		}
		if s.dramCache != nil {
			eachU64(&t.DRAM, s.dramCache.Stats(), add)
		}
	}
	return t
}

// result builds the RunResult of a run that took cycles to execute instr
// instructions on cores. Every count is t's scaled by f (1 for a full run,
// the total-to-measured access ratio for a sampled one); the mean load
// latency and the DRAM cache hit rate come from the unscaled t.
func (m *Machine) result(name string, cores []*coreRunner, cycles, instr uint64, t tally, f float64) RunResult {
	s := t
	s.apply(t, func(v, _ uint64) uint64 { return uint64(math.Round(float64(v) * f)) })
	if t.LatCount > 0 {
		s.MeanLoadLatency = float64(t.LatTotal) / float64(t.LatCount)
	}
	res := RunResult{
		Design:                  m.cfg.Design,
		Workload:                name,
		Sockets:                 m.cfg.Sockets,
		Cores:                   m.cfg.Cores(),
		Policy:                  m.cfg.MemPolicy,
		Topology:                m.fabric.Topology(),
		Cycles:                  cycles,
		Instructions:            instr,
		Counters:                s.Counters,
		InterSocketBytes:        s.Fabric.TotalBytes,
		InterSocketControlBytes: s.Fabric.ControlBytes,
		InterSocketDataBytes:    s.Fabric.DataBytes,
		InterSocketMessages:     s.Fabric.Messages,
		DRAMCacheHitRate:        t.DRAM.HitRate(),
		DRAMCacheStats:          s.DRAM,
		PageStats:               m.pageTable.Stats(),
		BroadcastFilterElided:   s.Elided,
	}
	for _, cr := range cores {
		res.PerCore = append(res.PerCore, cr.core.Stats())
	}
	return res
}

// IPC returns aggregate instructions per cycle (instructions across all
// cores divided by the parallel execution time).
func (r RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SpeedupOver returns this result's speedup relative to a reference run of
// the same workload (reference cycles / these cycles).
func (r RunResult) SpeedupOver(ref RunResult) float64 {
	return stats.Speedup(ref.Cycles, r.Cycles)
}

// NormalizedInterSocketTraffic returns this run's fabric bytes divided by the
// reference run's (Fig. 9's metric).
func (r RunResult) NormalizedInterSocketTraffic(ref RunResult) float64 {
	return stats.Normalized(float64(r.InterSocketBytes), float64(ref.InterSocketBytes))
}

// NormalizedRemoteMemReads returns remote memory reads relative to the
// reference run (Fig. 8's read series).
func (r RunResult) NormalizedRemoteMemReads(ref RunResult) float64 {
	return stats.Normalized(float64(r.Counters.RemoteMemReads), float64(ref.Counters.RemoteMemReads))
}

// NormalizedRemoteMemWrites returns remote memory writes relative to the
// reference run (Fig. 8's write series).
func (r RunResult) NormalizedRemoteMemWrites(ref RunResult) float64 {
	return stats.Normalized(float64(r.Counters.RemoteMemWrites), float64(ref.Counters.RemoteMemWrites))
}

// NormalizedRemoteMemAccesses returns total remote memory accesses relative
// to the reference run (Fig. 8's total series).
func (r RunResult) NormalizedRemoteMemAccesses(ref RunResult) float64 {
	return stats.Normalized(float64(r.Counters.RemoteMemAccesses()), float64(ref.Counters.RemoteMemAccesses()))
}

// NormalizedMemAccesses returns total memory accesses relative to the
// reference run (Fig. 3's metric).
func (r RunResult) NormalizedMemAccesses(ref RunResult) float64 {
	return stats.Normalized(float64(r.Counters.MemAccesses()), float64(ref.Counters.MemAccesses()))
}

// String renders a one-line summary useful in logs and examples.
func (r RunResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %d-socket: %d cycles, IPC %.3f, LLC miss %.1f%%, remote mem %.1f%%",
		r.Workload, r.Design, r.Sockets, r.Cycles, r.IPC(),
		r.Counters.LLCMissRate()*100, r.Counters.RemoteMemFraction()*100)
	if r.Design.HasDRAMCache() {
		fmt.Fprintf(&b, ", DRAM$ hit %.1f%%", r.DRAMCacheHitRate*100)
	}
	return b.String()
}
