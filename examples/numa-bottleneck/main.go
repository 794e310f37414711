// numa-bottleneck reproduces the motivation study of §II on one workload:
// how many memory accesses leave the socket (Table I), and whether the
// bottleneck is inter-socket latency or bandwidth (Fig. 2), by running the
// baseline machine with each idealisation.
//
//	go run ./examples/numa-bottleneck [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"c3d/internal/machine"
	"c3d/internal/workload"
)

func main() {
	name := "canneal"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	spec, err := workload.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 10_000}
	trace, err := workload.Generate(spec, opts)
	if err != nil {
		log.Fatal(err)
	}

	run := func(mutate func(*machine.Config)) machine.RunResult {
		cfg := machine.DefaultConfig(4, machine.Baseline)
		cfg.Scale = opts.Scale
		cfg.CoresPerSocket = opts.Threads / cfg.Sockets
		cfg.MemPolicy = spec.PreferredPolicy
		if mutate != nil {
			mutate(&cfg)
		}
		m := machine.New(cfg)
		res, err := m.RunSource(context.Background(), trace.Source(), machine.DefaultRunOptions())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(nil)
	fmt.Printf("== %s on the 4-socket baseline ==\n", name)
	fmt.Printf("remote memory accesses: %.1f%%  (Table I reports 61-77%%)\n\n",
		base.Counters.RemoteMemFraction()*100)

	fmt.Println("== where does the time go? (Fig. 2) ==")
	cases := []struct {
		label  string
		mutate func(*machine.Config)
	}{
		{"0 inter-socket latency", func(c *machine.Config) { c.ZeroHopLatency = true }},
		{"infinite memory bandwidth", func(c *machine.Config) { c.InfiniteMemBW = true }},
		{"infinite QPI bandwidth", func(c *machine.Config) { c.InfiniteLinkBW = true }},
	}
	for _, tc := range cases {
		res := run(tc.mutate)
		fmt.Printf("%-28s speedup %.3fx\n", tc.label, res.SpeedupOver(base))
	}
	fmt.Println("\nlatency, not bandwidth, is the NUMA bottleneck — which is why")
	fmt.Println("private DRAM caches (which remove off-socket trips) are the answer.")
}
