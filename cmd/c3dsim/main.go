// Command c3dsim runs a single simulation: one workload on one machine
// configuration under one coherence design, and prints the detailed
// statistics the experiments aggregate. It is a thin client of pkg/c3d — the
// same Session API the c3dd daemon serves.
//
// Usage:
//
//	c3dsim -workload streamcluster -design c3d -sockets 4
//	c3dsim -workload nutch -design baseline -policy INT -accesses 50000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"c3d/pkg/c3d"
)

func main() {
	var (
		workloadName = flag.String("workload", "streamcluster", "workload name (see c3dtrace -list)")
		specArg      = flag.String("spec", "", "workload-spec document: a file path or preset:<name> (see c3dtrace -list); replaces -workload unless one is named explicitly")
		designName   = flag.String("design", "c3d", "coherence design: baseline, snoopy, full-dir, c3d, c3d-full-dir, shared")
		sockets      = flag.Int("sockets", 4, "number of sockets (2-16)")
		topology     = flag.String("topology", "", "fabric topology: p2p, ring, mesh or full (default: the socket count's default)")
		threads      = flag.Int("threads", 0, "workload threads (default: the workload's native count; clamped to the machine's cores)")
		accesses     = flag.Int("accesses", 0, "accesses per thread (default: the workload's native count)")
		scale        = flag.Int("scale", 0, "capacity/footprint scale factor (default 64)")
		policyName   = flag.String("policy", "", "NUMA placement policy: INT, FT1 or FT2 (default: the workload's preferred policy)")
		warmup       = flag.Float64("warmup", 0.25, "fraction of each thread's stream used as cache warm-up")
		sampleArg    = flag.String("sample", "", "SMARTS-style sampled simulation schedule, e.g. stretch=1400,warm=60,win=60[,seed=S]; reports 95% confidence half-widths and runs several times faster (default: full detailed simulation)")
		filter       = flag.Bool("broadcast-filter", false, "enable the §IV-D private-page broadcast filter (C3D only)")
		asJSON       = flag.Bool("json", false, "emit the full result (counters, topology, per-core stats) as JSON instead of the text summary")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("c3dsim", c3d.Version())
		return
	}

	params := c3d.Params{
		Design:          *designName,
		Policy:          *policyName,
		Topology:        *topology,
		Sockets:         *sockets,
		Threads:         *threads,
		Accesses:        *accesses,
		Scale:           *scale,
		Warmup:          warmup,
		BroadcastFilter: *filter,
		Sampling:        *sampleArg,
	}
	runName := *workloadName
	if *specArg != "" {
		doc, err := c3d.ReadWorkloadSpec(*specArg)
		exitOn(err)
		params.Spec = doc
		// The spec is the workload unless -workload was given explicitly:
		// the flag's default must not shadow the document.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "workload" })
		if !explicit {
			runName = ""
		}
	}
	sess, err := params.Session()
	exitOn(err)

	// Ctrl-C cancels the run instead of killing the process mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	progressOut := os.Stdout
	if *asJSON {
		// Keep stdout pure JSON.
		progressOut = os.Stderr
	}
	label := runName
	if label == "" {
		label = "workload spec " + *specArg
	}
	fmt.Fprintf(progressOut, "streaming %s (design=%s sockets=%d)...\n", label, *designName, *sockets)
	start := time.Now()
	res, err := sess.Simulate(ctx, runName)
	exitOn(err)
	if res.ThreadsClamped {
		// Surface the clamp: the run used fewer threads than asked for, and
		// pretending otherwise would misrepresent every per-thread statistic.
		fmt.Fprintf(os.Stderr, "c3dsim: note: -threads %d exceeds the machine's %d cores; ran with %d threads\n",
			res.RequestedThreads, res.Cores, res.EffectiveThreads)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(res))
		return
	}

	c := res.Counters
	fmt.Printf("\n%s on %d-socket %s (policy %v, topology %s), simulated in %v\n",
		res.Workload, res.Sockets, res.Design, res.Policy, res.Topology, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  threads                %d\n", res.EffectiveThreads)
	fmt.Printf("  cycles                 %d\n", res.Cycles)
	fmt.Printf("  aggregate IPC          %.3f\n", res.IPC())
	fmt.Printf("  LLC miss rate          %.1f%%\n", c.LLCMissRate()*100)
	if res.Design.HasDRAMCache() {
		fmt.Printf("  DRAM cache hit rate    %.1f%%\n", res.DRAMCacheHitRate*100)
	}
	fmt.Printf("  memory reads / writes  %d / %d\n", c.MemReads, c.MemWrites)
	fmt.Printf("  remote memory fraction %.1f%%\n", c.RemoteMemFraction()*100)
	fmt.Printf("  mean load latency      %.1f cycles\n", c.MeanLoadLatency)
	fmt.Printf("  inter-socket traffic   %.2f MiB (%d messages)\n",
		float64(res.InterSocketBytes)/(1<<20), res.InterSocketMessages)
	fmt.Printf("  broadcasts             %d (avoided by filter: %d)\n", c.Broadcasts, res.BroadcastFilterElided)
	fmt.Printf("  directory recalls      %d\n", c.DirRecalls)
	if s := res.Sampling; s != nil {
		fmt.Printf("  sampled                %d windows, %.1f%% simulated in detail (%s)\n",
			s.Windows, float64(s.DetailedAccesses)/float64(s.TotalAccesses)*100, s.Spec)
		fmt.Printf("    CPI                  %s\n", s.Estimates.CPI.Format(3))
		fmt.Printf("    LLC miss rate        %s\n", s.Estimates.LLCMissRate.Format(4))
		fmt.Printf("    fabric B/access      %s\n", s.Estimates.FabricBytesPerAccess.Format(2))
		fmt.Printf("    remote mem fraction  %s\n", s.Estimates.RemoteMemFraction.Format(4))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3dsim:", err)
		os.Exit(1)
	}
}
