// Quickstart: build a 4-socket NUMA machine, run one workload under the
// baseline (no DRAM caches) and under C3D, and report the speedup and traffic
// reduction — the headline result of the paper in a dozen lines of API use.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"c3d/internal/machine"
	"c3d/internal/workload"
)

func main() {
	// A reduced-size run so the example finishes in seconds; drop the
	// overrides for the paper-scale configuration.
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 10_000}
	spec := workload.MustGet("streamcluster")
	trace, err := workload.Generate(spec, opts)
	if err != nil {
		log.Fatal(err)
	}

	run := func(design machine.Design) machine.RunResult {
		cfg := machine.DefaultConfig(4, design)
		cfg.Scale = opts.Scale
		cfg.CoresPerSocket = opts.Threads / cfg.Sockets
		cfg.MemPolicy = spec.PreferredPolicy
		m := machine.New(cfg)
		res, err := m.RunSource(context.Background(), trace.Source(), machine.DefaultRunOptions())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	baseline := run(machine.Baseline)
	c3d := run(machine.C3D)

	fmt.Printf("workload            %s (%d threads)\n", spec.Name, trace.Threads())
	fmt.Printf("baseline            %s\n", baseline)
	fmt.Printf("c3d                 %s\n", c3d)
	fmt.Printf("speedup             %.2fx\n", c3d.SpeedupOver(baseline))
	fmt.Printf("remote reads kept   %.0f%%\n", c3d.NormalizedRemoteMemReads(baseline)*100)
	fmt.Printf("inter-socket bytes  %.0f%% of baseline\n", c3d.NormalizedInterSocketTraffic(baseline)*100)
}
