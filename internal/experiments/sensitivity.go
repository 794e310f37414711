package experiments

import (
	"context"
	"fmt"

	"c3d/internal/machine"
	"c3d/internal/stats"
)

// sensitivityDesigns are the designs swept by the Fig. 10/11 sensitivity
// studies (the paper plots snoopy, full-dir and c3d).
var sensitivityDesigns = []machine.Design{machine.Snoopy, machine.FullDir, machine.C3D}

// SensitivityResult is the shared shape of Figs. 10 and 11: the
// geometric-mean speedup over the baseline of each design at each parameter
// value.
type SensitivityResult struct {
	// Parameter is the swept quantity ("DRAM cache latency" or
	// "inter-socket latency").
	Parameter string
	// Values are the swept values in nanoseconds, in presentation order.
	Values []float64
	// Speedup maps value -> design name -> geomean speedup over baseline.
	Speedup map[float64]map[string]float64
}

// Table renders the sensitivity sweep.
func (r SensitivityResult) Table() *stats.Table {
	headers := []string{r.Parameter}
	for _, d := range sensitivityDesigns {
		headers = append(headers, d.String())
	}
	t := stats.NewTable(headers...)
	for _, v := range r.Values {
		cells := []string{fmt.Sprintf("%.0fns", v)}
		for _, d := range sensitivityDesigns {
			cells = append(cells, fmt.Sprintf("%.3f", r.Speedup[v][d.String()]))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig10Latencies are the DRAM cache latencies swept by Fig. 10.
var Fig10Latencies = []float64{30, 40, 50}

// Fig10 runs the DRAM cache latency sensitivity study: each design's
// geometric-mean speedup over the baseline at 30, 40 and 50 ns DRAM cache
// latency (memory stays at 50 ns).
func Fig10(ctx context.Context, cfg Config) (SensitivityResult, error) {
	return latencySensitivity(ctx, cfg, "DRAM cache latency", "fig10", Fig10Latencies,
		func(m *machine.Config, v float64) { m.DRAMCacheLatencyNs = v })
}

// Fig11Latencies are the inter-socket hop latencies swept by Fig. 11.
var Fig11Latencies = []float64{5, 10, 20, 30}

// Fig11 runs the inter-socket latency sensitivity study. The baseline is
// re-run at each latency (the link speed affects it too), exactly as in the
// paper.
func Fig11(ctx context.Context, cfg Config) (SensitivityResult, error) {
	return latencySensitivity(ctx, cfg, "inter-socket latency", "fig11", Fig11Latencies,
		func(m *machine.Config, v float64) { m.HopLatencyNs = v })
}

func latencySensitivity(ctx context.Context, cfg Config, parameter, tag string, values []float64,
	apply func(*machine.Config, float64)) (SensitivityResult, error) {
	designs := append([]machine.Design{machine.Baseline}, sensitivityDesigns...)
	var jobs []job
	for _, spec := range cfg.workloads() {
		for _, d := range designs {
			for _, v := range values {
				mcfg := cfg.machineConfig(cfg.Sockets, d, spec.PreferredPolicy)
				apply(&mcfg, v)
				jobs = append(jobs, job{key: key(tag, spec.Name, d, v), spec: spec, mcfg: mcfg})
			}
		}
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return SensitivityResult{}, err
	}
	out := SensitivityResult{
		Parameter: parameter,
		Values:    values,
		Speedup:   make(map[float64]map[string]float64),
	}
	for _, v := range values {
		v := v
		row := make(map[string]float64)
		for _, d := range sensitivityDesigns {
			d := d
			row[d.String()] = geomeanOver(cfg.workloadNames(), func(name string) float64 {
				base := results[key(tag, name, machine.Baseline, v)]
				return results[key(tag, name, d, v)].SpeedupOver(base)
			})
		}
		out.Speedup[v] = row
	}
	return out, nil
}
