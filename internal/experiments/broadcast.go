package experiments

import (
	"context"
	"fmt"

	"c3d/internal/machine"
	"c3d/internal/stats"
)

// --- §VI-C: reducing broadcast traffic with the TLB classification ---

// BroadcastFilterResult reproduces the §VI-C study: the broadcasts the base
// C3D protocol sends, how many the TLB private-page filter removes, and the
// effect on overall inter-socket traffic. The paper evaluates the
// multi-threaded suite (where the reduction is small because shared data
// dominates) and the single-threaded mcf (where write-related broadcast
// traffic disappears entirely).
type BroadcastFilterResult struct {
	// PerWorkload maps workload -> the filter's effect.
	PerWorkload map[string]BroadcastFilterRow
}

// BroadcastFilterRow is the per-workload outcome.
type BroadcastFilterRow struct {
	// BroadcastsBase is the number of broadcast invalidations without the
	// filter.
	BroadcastsBase uint64
	// BroadcastsFiltered is the number with the filter enabled.
	BroadcastsFiltered uint64
	// Elided is the number of broadcasts the filter suppressed.
	Elided uint64
	// BroadcastReduction is the fraction of broadcasts removed.
	BroadcastReduction float64
	// TrafficReduction is the relative reduction of total inter-socket
	// bytes (tiny for multi-threaded workloads, per the paper).
	TrafficReduction float64
}

// Table renders the study.
func (r BroadcastFilterResult) Table() *stats.Table {
	t := stats.NewTable("workload", "broadcasts", "with filter", "reduction", "traffic saved")
	for _, name := range tableNames(r.PerWorkload) {
		row := r.PerWorkload[name]
		t.AddRow(name,
			fmt.Sprintf("%d", row.BroadcastsBase),
			fmt.Sprintf("%d", row.BroadcastsFiltered),
			stats.Percent(row.BroadcastReduction),
			stats.Percent(row.TrafficReduction))
	}
	return t
}

// Sec6C runs the broadcast-filter study over the configured workloads plus
// mcf.
func Sec6C(ctx context.Context, cfg Config) (BroadcastFilterResult, error) {
	names := append(append([]string{}, cfg.workloadNames()...), "mcf")
	var jobs []job
	for _, name := range names {
		spec := cfg.mustWorkload(name)
		jobs = append(jobs,
			job{
				key:  key("sec6c", name, "base"),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, machine.C3D, spec.PreferredPolicy),
			},
			job{
				key:  key("sec6c", name, "filtered"),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, machine.C3D, spec.PreferredPolicy),
				mutate: func(m *machine.Config) {
					m.EnableBroadcastFilter = true
				},
			})
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return BroadcastFilterResult{}, err
	}
	out := BroadcastFilterResult{PerWorkload: make(map[string]BroadcastFilterRow)}
	for _, name := range names {
		base := results[key("sec6c", name, "base")]
		filtered := results[key("sec6c", name, "filtered")]
		row := BroadcastFilterRow{
			BroadcastsBase:     base.Counters.Broadcasts,
			BroadcastsFiltered: filtered.Counters.Broadcasts,
			Elided:             filtered.BroadcastFilterElided,
		}
		if row.BroadcastsBase > 0 {
			row.BroadcastReduction = 1 - float64(row.BroadcastsFiltered)/float64(row.BroadcastsBase)
		}
		if base.InterSocketBytes > 0 {
			row.TrafficReduction = 1 - float64(filtered.InterSocketBytes)/float64(base.InterSocketBytes)
		}
		out.PerWorkload[name] = row
	}
	return out, nil
}
