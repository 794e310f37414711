package experiments

import (
	"context"
	"fmt"

	"c3d/internal/machine"
	"c3d/internal/stats"
)

// The ablations below are not figures from the paper; they isolate the two
// design decisions C3D is built on, as §II-C and §IV motivate them:
//
//   - the private-versus-shared DRAM cache organisation question of §II-C;
//   - the clean-cache property and the non-inclusive directory, separated by
//     comparing full-dir, c3d-full-dir and c3d (which differ in exactly one
//     of the two properties at a time);
//   - the region-based miss predictor of Table II.

// PrivateVsSharedResult compares the two DRAM cache organisations of §II-C
// against the baseline.
type PrivateVsSharedResult struct {
	// Speedup maps workload -> organisation ("shared", "c3d") -> speedup.
	Speedup map[string]map[string]float64
	// RemoteReadReduction maps workload -> organisation -> fraction of
	// remote memory reads removed versus the baseline.
	RemoteReadReduction map[string]map[string]float64
	// TrafficReduction maps workload -> organisation -> fraction of
	// inter-socket bytes removed versus the baseline.
	TrafficReduction map[string]map[string]float64
}

// Table renders the comparison.
func (r PrivateVsSharedResult) Table() *stats.Table {
	t := stats.NewTable("workload",
		"shared speedup", "private speedup",
		"shared remote-read cut", "private remote-read cut",
		"shared traffic cut", "private traffic cut")
	for _, name := range tableNames(r.Speedup) {
		t.AddRow(name,
			fmt.Sprintf("%.3f", r.Speedup[name]["shared"]),
			fmt.Sprintf("%.3f", r.Speedup[name]["c3d"]),
			stats.Percent(r.RemoteReadReduction[name]["shared"]),
			stats.Percent(r.RemoteReadReduction[name]["c3d"]),
			stats.Percent(r.TrafficReduction[name]["shared"]),
			stats.Percent(r.TrafficReduction[name]["c3d"]))
	}
	return t
}

// PrivateVsShared runs the §II-C organisation comparison: a shared
// (memory-side) DRAM cache versus C3D's private organisation.
func PrivateVsShared(ctx context.Context, cfg Config) (PrivateVsSharedResult, error) {
	designs := []machine.Design{machine.Baseline, machine.SharedDRAM, machine.C3D}
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		for _, d := range designs {
			jobs = append(jobs, job{
				key:  key("pvs", name, d),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, d, spec.PreferredPolicy),
			})
		}
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return PrivateVsSharedResult{}, err
	}
	out := PrivateVsSharedResult{
		Speedup:             make(map[string]map[string]float64),
		RemoteReadReduction: make(map[string]map[string]float64),
		TrafficReduction:    make(map[string]map[string]float64),
	}
	for _, name := range cfg.workloadNames() {
		base := results[key("pvs", name, machine.Baseline)]
		speed := map[string]float64{}
		reads := map[string]float64{}
		traffic := map[string]float64{}
		for _, d := range []machine.Design{machine.SharedDRAM, machine.C3D} {
			res := results[key("pvs", name, d)]
			label := "shared"
			if d == machine.C3D {
				label = "c3d"
			}
			speed[label] = res.SpeedupOver(base)
			reads[label] = 1 - res.NormalizedRemoteMemReads(base)
			traffic[label] = 1 - res.NormalizedInterSocketTraffic(base)
		}
		out.Speedup[name] = speed
		out.RemoteReadReduction[name] = reads
		out.TrafficReduction[name] = traffic
	}
	return out, nil
}

// AblationResult isolates C3D's two ingredients using the full-dir,
// c3d-full-dir and c3d designs, plus the value of the miss predictor.
type AblationResult struct {
	// CleanProperty maps workload -> speedup of c3d-full-dir over full-dir:
	// the value of keeping DRAM caches clean with the directory held equal.
	CleanProperty map[string]float64
	// NonInclusiveDir maps workload -> speedup of c3d over c3d-full-dir: the
	// (small) cost of dropping DRAM cache tracking and broadcasting instead.
	NonInclusiveDir map[string]float64
	// MissPredictor maps workload -> speedup of c3d over c3d without its
	// miss predictor.
	MissPredictor map[string]float64
}

// Table renders the ablation.
func (r AblationResult) Table() *stats.Table {
	t := stats.NewTable("workload", "clean property", "non-inclusive dir", "miss predictor")
	for _, name := range tableNames(r.CleanProperty) {
		t.AddRow(name,
			fmt.Sprintf("%.3f", r.CleanProperty[name]),
			fmt.Sprintf("%.3f", r.NonInclusiveDir[name]),
			fmt.Sprintf("%.3f", r.MissPredictor[name]))
	}
	return t
}

// Ablation runs the design-choice ablation.
func Ablation(ctx context.Context, cfg Config) (AblationResult, error) {
	var jobs []job
	for _, name := range cfg.workloadNames() {
		spec := cfg.mustWorkload(name)
		for _, d := range []machine.Design{machine.FullDir, machine.C3D, machine.C3DFullDir} {
			jobs = append(jobs, job{
				key:  key("abl", name, d),
				spec: spec,
				mcfg: cfg.machineConfig(cfg.Sockets, d, spec.PreferredPolicy),
			})
		}
		jobs = append(jobs, job{
			key:  key("abl", name, "nopred"),
			spec: spec,
			mcfg: cfg.machineConfig(cfg.Sockets, machine.C3D, spec.PreferredPolicy),
			mutate: func(m *machine.Config) {
				m.PredictorEntries = 0
			},
		})
	}
	results, err := cfg.runJobs(ctx, jobs)
	if err != nil {
		return AblationResult{}, err
	}
	out := AblationResult{
		CleanProperty:   make(map[string]float64),
		NonInclusiveDir: make(map[string]float64),
		MissPredictor:   make(map[string]float64),
	}
	for _, name := range cfg.workloadNames() {
		fullDir := results[key("abl", name, machine.FullDir)]
		c3d := results[key("abl", name, machine.C3D)]
		c3dFull := results[key("abl", name, machine.C3DFullDir)]
		noPred := results[key("abl", name, "nopred")]
		out.CleanProperty[name] = c3dFull.SpeedupOver(fullDir)
		out.NonInclusiveDir[name] = c3d.SpeedupOver(c3dFull)
		out.MissPredictor[name] = c3d.SpeedupOver(noPred)
	}
	return out, nil
}
