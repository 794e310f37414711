package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"c3d/internal/machine"
	"c3d/internal/sample"
	"c3d/internal/stats"
)

// evaluatedDesigns are the DRAM-cache coherence designs compared against the
// baseline in Figs. 6-9, in the design table's (the paper's legend) order.
var evaluatedDesigns = slices.DeleteFunc(machine.EvaluatedDesigns(), func(d machine.Design) bool { return d == machine.Baseline })

// SpeedupResult is the shared shape of the Fig. 6 / Fig. 7 performance
// comparisons: per-workload speedup of each design over the no-DRAM-cache
// baseline.
type SpeedupResult struct {
	Sockets int
	// Speedup maps workload -> design name -> speedup over baseline.
	Speedup map[string]map[string]float64
	// Bars maps workload -> design name -> the speedup's 95% confidence
	// half-width. It is populated only for sampled runs; nil means exact
	// full-detail results and bar-free tables.
	Bars map[string]map[string]float64
	// Geomean maps design name -> geometric-mean speedup.
	Geomean map[string]float64
	// GeomeanBars maps design name -> the geomean's 95% half-width
	// (sampled runs only).
	GeomeanBars map[string]float64
}

// Sampled reports whether the result carries confidence half-widths.
func (r SpeedupResult) Sampled() bool { return r.Bars != nil }

// cell renders one speedup value, with its error bar when sampled.
func (r SpeedupResult) cell(v float64, bar float64) string {
	if r.Sampled() {
		return sample.Estimate{Value: v, HalfWidth: bar}.Format(3)
	}
	return fmt.Sprintf("%.3f", v)
}

// Table renders the speedups in the paper's layout. Sampled runs render every
// cell as "value±half", so the error bars are part of the JSON artefact.
func (r SpeedupResult) Table() *stats.Table {
	headers := []string{"workload"}
	for _, d := range evaluatedDesigns {
		headers = append(headers, d.String())
	}
	t := stats.NewTable(headers...)
	for _, name := range tableNames(r.Speedup) {
		row := r.Speedup[name]
		cells := []string{name}
		for _, d := range evaluatedDesigns {
			cells = append(cells, r.cell(row[d.String()], r.Bars[name][d.String()]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for _, d := range evaluatedDesigns {
		cells = append(cells, r.cell(r.Geomean[d.String()], r.GeomeanBars[d.String()]))
	}
	t.AddRow(cells...)
	return t
}

// designComparison runs every evaluated design plus the baseline on every
// workload for the given socket count, returning the raw results keyed by
// (workload, design).
func designComparison(ctx context.Context, cfg Config, sockets int, tag string) (map[string]machine.RunResult, error) {
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		for _, d := range machine.EvaluatedDesigns() {
			jobs = append(jobs, job{
				key:  key(tag, name, d),
				spec: spec,
				mcfg: cfg.machineConfig(sockets, d, spec.PreferredPolicy),
			})
		}
	}
	return cfg.runJobs(ctx, jobs)
}

func speedupsFrom(cfg Config, tag string, results map[string]machine.RunResult, sockets int) SpeedupResult {
	out := SpeedupResult{
		Sockets: sockets,
		Speedup: make(map[string]map[string]float64),
		Geomean: make(map[string]float64),
	}
	sampled := cfg.Sampling != ""
	if sampled {
		out.Bars = make(map[string]map[string]float64)
		out.GeomeanBars = make(map[string]float64)
	}
	for _, name := range cfg.workloadNames() {
		base := results[key(tag, name, machine.Baseline)]
		row := make(map[string]float64)
		bars := make(map[string]float64)
		for _, d := range evaluatedDesigns {
			des := results[key(tag, name, d)]
			row[d.String()] = des.SpeedupOver(base)
			if sampled && base.Sampling != nil && des.Sampling != nil {
				// Speedup = baseline CPI / design CPI (instruction counts are
				// exact and shared), so its bar propagates the two CPI bars.
				bars[d.String()] = sample.RatioOf(base.Sampling.Estimates.CPI, des.Sampling.Estimates.CPI).HalfWidth
			}
		}
		out.Speedup[name] = row
		if sampled {
			out.Bars[name] = bars
		}
	}
	for _, d := range evaluatedDesigns {
		d := d
		out.Geomean[d.String()] = geomeanOver(cfg.workloadNames(), func(name string) float64 {
			return out.Speedup[name][d.String()]
		})
		if sampled {
			out.GeomeanBars[d.String()] = geomeanBar(out.Geomean[d.String()], cfg.workloadNames(), func(name string) sample.Estimate {
				return sample.Estimate{Value: out.Speedup[name][d.String()], HalfWidth: out.Bars[name][d.String()]}
			})
		}
	}
	return out
}

// geomeanBar propagates per-workload half-widths into a geometric mean's:
// relative errors add in quadrature divided by the workload count (the
// first-order error of an n-th root of a product).
func geomeanBar(geomean float64, names []string, est func(name string) sample.Estimate) float64 {
	if len(names) == 0 {
		return 0
	}
	sumSq := 0.0
	for _, n := range names {
		rel := est(n).RelError()
		sumSq += rel * rel
	}
	return math.Abs(geomean) * math.Sqrt(sumSq) / float64(len(names))
}

// Fig6 runs the 4-socket (8 cores/socket) performance comparison.
func Fig6(ctx context.Context, cfg Config) (SpeedupResult, error) {
	results, err := designComparison(ctx, cfg, 4, "fig6")
	if err != nil {
		return SpeedupResult{}, err
	}
	return speedupsFrom(cfg, "fig6", results, 4), nil
}

// Fig7 runs the 2-socket (16 cores/socket) performance comparison.
func Fig7(ctx context.Context, cfg Config) (SpeedupResult, error) {
	results, err := designComparison(ctx, cfg, 2, "fig7")
	if err != nil {
		return SpeedupResult{}, err
	}
	return speedupsFrom(cfg, "fig7", results, 2), nil
}

// --- Fig. 8: C3D memory traffic normalised to the baseline ---

// Fig8Result reproduces Fig. 8: C3D's remote memory reads, writes and total
// accesses normalised to the no-DRAM-cache baseline.
type Fig8Result struct {
	// Reads, Writes and Total map workload -> normalised traffic.
	Reads  map[string]float64
	Writes map[string]float64
	Total  map[string]float64
	// GeomeanReads/Writes/Total summarise across workloads.
	GeomeanReads  float64
	GeomeanWrites float64
	GeomeanTotal  float64
}

// Table renders the three series.
func (r Fig8Result) Table() *stats.Table {
	t := stats.NewTable("workload", "reads", "writes", "total")
	for _, name := range tableNames(r.Total) {
		t.AddRow(name,
			fmt.Sprintf("%.3f", r.Reads[name]),
			fmt.Sprintf("%.3f", r.Writes[name]),
			fmt.Sprintf("%.3f", r.Total[name]))
	}
	t.AddRow("geomean",
		fmt.Sprintf("%.3f", r.GeomeanReads),
		fmt.Sprintf("%.3f", r.GeomeanWrites),
		fmt.Sprintf("%.3f", r.GeomeanTotal))
	return t
}

// Fig8 runs the memory-traffic study (4-socket, C3D versus baseline).
func Fig8(ctx context.Context, cfg Config) (Fig8Result, error) {
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		for _, d := range []machine.Design{machine.Baseline, machine.C3D} {
			jobs = append(jobs, job{
				key:  key("fig8", name, d),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, d, spec.PreferredPolicy),
			})
		}
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return Fig8Result{}, err
	}
	out := Fig8Result{
		Reads:  make(map[string]float64),
		Writes: make(map[string]float64),
		Total:  make(map[string]float64),
	}
	for _, name := range cfg.workloadNames() {
		base := results[key("fig8", name, machine.Baseline)]
		c3d := results[key("fig8", name, machine.C3D)]
		out.Reads[name] = c3d.NormalizedRemoteMemReads(base)
		out.Writes[name] = c3d.NormalizedRemoteMemWrites(base)
		out.Total[name] = c3d.NormalizedRemoteMemAccesses(base)
	}
	names := cfg.workloadNames()
	out.GeomeanReads = geomeanOver(names, func(n string) float64 { return out.Reads[n] })
	out.GeomeanWrites = geomeanOver(names, func(n string) float64 { return out.Writes[n] })
	out.GeomeanTotal = geomeanOver(names, func(n string) float64 { return out.Total[n] })
	return out, nil
}

// --- Fig. 9: inter-socket traffic normalised to the baseline ---

// Fig9Result reproduces Fig. 9: the bytes crossing the inter-socket fabric
// under each design, normalised to the baseline.
type Fig9Result struct {
	// Normalized maps workload -> design name -> normalised traffic.
	Normalized map[string]map[string]float64
	// Geomean maps design name -> geometric mean.
	Geomean map[string]float64
}

// Table renders the traffic comparison.
func (r Fig9Result) Table() *stats.Table {
	headers := []string{"workload"}
	for _, d := range evaluatedDesigns {
		headers = append(headers, d.String())
	}
	t := stats.NewTable(headers...)
	for _, name := range tableNames(r.Normalized) {
		row := r.Normalized[name]
		cells := []string{name}
		for _, d := range evaluatedDesigns {
			cells = append(cells, fmt.Sprintf("%.3f", row[d.String()]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for _, d := range evaluatedDesigns {
		cells = append(cells, fmt.Sprintf("%.3f", r.Geomean[d.String()]))
	}
	t.AddRow(cells...)
	return t
}

// Fig9 runs the inter-socket traffic study: the Fig. 6 machine (4 sockets,
// every evaluated design plus the baseline) in simulations of its own, tagged
// "fig9".
func Fig9(ctx context.Context, cfg Config) (Fig9Result, error) {
	results, err := designComparison(ctx, cfg, 4, "fig9")
	if err != nil {
		return Fig9Result{}, err
	}
	out := Fig9Result{Normalized: make(map[string]map[string]float64), Geomean: make(map[string]float64)}
	for _, name := range cfg.workloadNames() {
		base := results[key("fig9", name, machine.Baseline)]
		row := make(map[string]float64)
		for _, d := range evaluatedDesigns {
			row[d.String()] = results[key("fig9", name, d)].NormalizedInterSocketTraffic(base)
		}
		out.Normalized[name] = row
	}
	for _, d := range evaluatedDesigns {
		d := d
		out.Geomean[d.String()] = geomeanOver(cfg.workloadNames(), func(name string) float64 {
			return out.Normalized[name][d.String()]
		})
	}
	return out, nil
}
