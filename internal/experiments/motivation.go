package experiments

import (
	"context"
	"fmt"

	"c3d/internal/machine"
	"c3d/internal/stats"
)

// --- Table I: fraction of memory accesses satisfied by remote memory ---

// TableIResult reproduces Table I: for each workload, the fraction of memory
// accesses that a 4-socket baseline (no DRAM caches) satisfies from a remote
// socket's memory under a first-touch placement policy.
type TableIResult struct {
	// RemoteFraction maps workload name to the remote-memory fraction.
	RemoteFraction map[string]float64
	// Average is the arithmetic mean across workloads (the paper quotes
	// 26.5% local, i.e. 73.5% remote, on average).
	Average float64
}

// Table renders the result in the paper's layout.
func (r TableIResult) Table() *stats.Table {
	t := stats.NewTable("workload", "remote memory accesses")
	for _, name := range tableNames(r.RemoteFraction) {
		t.AddRow(name, stats.Percent(r.RemoteFraction[name]))
	}
	t.AddRow("average", stats.Percent(r.Average))
	return t
}

// TableI runs the Table I characterisation.
func TableI(ctx context.Context, cfg Config) (TableIResult, error) {
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		// Table I is collected under first-touch placement (§II-A).
		jobs = append(jobs, job{
			key:  key("table1", name),
			spec: spec,
			mcfg: cfg.machineConfig(cfg.Sockets, machine.Baseline, spec.PreferredPolicy),
		})
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return TableIResult{}, err
	}
	out := TableIResult{RemoteFraction: make(map[string]float64)}
	sum := 0.0
	for _, name := range cfg.workloadNames() {
		res := results[key("table1", name)]
		frac := res.Counters.RemoteMemFraction()
		out.RemoteFraction[name] = frac
		sum += frac
	}
	if n := len(cfg.workloadNames()); n > 0 {
		out.Average = sum / float64(n)
	}
	return out, nil
}

// --- Fig. 2: NUMA bottleneck analysis ---

// Fig2Idealisations lists the idealised configurations of Fig. 2 in the
// paper's order.
var Fig2Idealisations = []string{"0_qpi_lat", "inf_mem_bw", "inf_qpi_bw", "inf_mem_bw+inf_qpi_bw"}

// Fig2Result reproduces Fig. 2: the speedup of each idealised configuration
// over the realistic baseline, per workload.
type Fig2Result struct {
	// Speedup maps workload -> idealisation -> speedup over baseline.
	Speedup map[string]map[string]float64
	// Geomean maps idealisation -> geometric-mean speedup.
	Geomean map[string]float64
}

// Table renders the per-workload speedups.
func (r Fig2Result) Table() *stats.Table {
	t := stats.NewTable(append([]string{"workload"}, Fig2Idealisations...)...)
	for _, name := range tableNames(r.Speedup) {
		row := r.Speedup[name]
		cells := []string{name}
		for _, ideal := range Fig2Idealisations {
			cells = append(cells, fmt.Sprintf("%.3f", row[ideal]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for _, ideal := range Fig2Idealisations {
		cells = append(cells, fmt.Sprintf("%.3f", r.Geomean[ideal]))
	}
	t.AddRow(cells...)
	return t
}

// Fig2 runs the NUMA bottleneck analysis.
func Fig2(ctx context.Context, cfg Config) (Fig2Result, error) {
	mutations := map[string]func(*machine.Config){
		"baseline":   nil,
		"0_qpi_lat":  func(m *machine.Config) { m.ZeroHopLatency = true },
		"inf_mem_bw": func(m *machine.Config) { m.InfiniteMemBW = true },
		"inf_qpi_bw": func(m *machine.Config) { m.InfiniteLinkBW = true },
		"inf_mem_bw+inf_qpi_bw": func(m *machine.Config) {
			m.InfiniteMemBW = true
			m.InfiniteLinkBW = true
		},
	}
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		// Jobs are built in the paper's presentation order, not map order:
		// job order decides progress-event order, which is wire-visible.
		for _, ideal := range append([]string{"baseline"}, Fig2Idealisations...) {
			mutate := mutations[ideal]
			jobs = append(jobs, job{
				key:    key("fig2", name, ideal),
				spec:   spec,
				mcfg:   cfg.machineConfig(cfg.Sockets, machine.Baseline, spec.PreferredPolicy),
				mutate: mutate,
			})
		}
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return Fig2Result{}, err
	}
	out := Fig2Result{Speedup: make(map[string]map[string]float64), Geomean: make(map[string]float64)}
	for _, name := range cfg.workloadNames() {
		base := results[key("fig2", name, "baseline")]
		row := make(map[string]float64)
		for _, ideal := range Fig2Idealisations {
			row[ideal] = results[key("fig2", name, ideal)].SpeedupOver(base)
		}
		out.Speedup[name] = row
	}
	for _, ideal := range Fig2Idealisations {
		out.Geomean[ideal] = geomeanOver(cfg.workloadNames(), func(name string) float64 {
			return out.Speedup[name][ideal]
		})
	}
	return out, nil
}

// --- Fig. 3: memory accesses as a function of LLC capacity ---

// Fig3Capacities are the LLC capacities swept by Fig. 3, expressed at paper
// scale (the baseline 16 MB plus the three larger points).
var Fig3Capacities = []uint64{16 * mibBytes, 64 * mibBytes, 256 * mibBytes, 1024 * mibBytes}

const mibBytes = 1 << 20

// Fig3Result reproduces Fig. 3: memory accesses with larger LLCs, normalised
// to the 16 MB baseline.
type Fig3Result struct {
	// Normalized maps workload -> capacity (bytes at paper scale) ->
	// memory accesses normalised to the 16 MB LLC.
	Normalized map[string]map[uint64]float64
	// Geomean maps capacity -> geometric mean across workloads.
	Geomean map[uint64]float64
}

// Table renders the normalised memory-access series.
func (r Fig3Result) Table() *stats.Table {
	headers := []string{"workload"}
	for _, c := range Fig3Capacities[1:] {
		headers = append(headers, fmt.Sprintf("%dMB", c/mibBytes))
	}
	t := stats.NewTable(headers...)
	for _, name := range tableNames(r.Normalized) {
		row := r.Normalized[name]
		cells := []string{name}
		for _, c := range Fig3Capacities[1:] {
			cells = append(cells, fmt.Sprintf("%.3f", row[c]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for _, c := range Fig3Capacities[1:] {
		cells = append(cells, fmt.Sprintf("%.3f", r.Geomean[c]))
	}
	t.AddRow(cells...)
	return t
}

// Fig3 runs the LLC capacity sweep.
func Fig3(ctx context.Context, cfg Config) (Fig3Result, error) {
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		for _, capacity := range Fig3Capacities {
			capacity := capacity
			jobs = append(jobs, job{
				key:  key("fig3", name, capacity),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, machine.Baseline, spec.PreferredPolicy),
				mutate: func(m *machine.Config) {
					m.LLCSizeBytes = capacity
				},
			})
		}
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return Fig3Result{}, err
	}
	out := Fig3Result{Normalized: make(map[string]map[uint64]float64), Geomean: make(map[uint64]float64)}
	for _, name := range cfg.workloadNames() {
		base := results[key("fig3", name, Fig3Capacities[0])]
		row := make(map[uint64]float64)
		for _, capacity := range Fig3Capacities {
			row[capacity] = results[key("fig3", name, capacity)].NormalizedMemAccesses(base)
		}
		out.Normalized[name] = row
	}
	for _, capacity := range Fig3Capacities {
		capacity := capacity
		out.Geomean[capacity] = geomeanOver(cfg.workloadNames(), func(name string) float64 {
			return out.Normalized[name][capacity]
		})
	}
	return out, nil
}
