// Command c3dexp runs the paper-reproduction experiments: every table and
// figure of the C3D evaluation, by id or all of them. It is a thin client of
// pkg/c3d — the same Session API the c3dd daemon serves, so `c3dexp -json`
// output is byte-identical to the daemon's result endpoint for the same job.
//
// Usage:
//
//	c3dexp -exp fig6                 # one experiment at paper scale
//	c3dexp -exp all -quick           # the full set at smoke-test scale
//	c3dexp -list                     # show available experiments
//	c3dexp -exp fig8 -workloads streamcluster,canneal -accesses 60000
//	c3dexp -exp fig6 -quick -json    # machine-readable output for CI tooling
//	c3dexp -exp all -quick -parallel 4
//	c3dexp -exp all -quick -json -remote http://coordinator:8080
//
// Paper-scale runs (32 threads, 200k accesses/thread) take tens of seconds
// to a few minutes per machine configuration on one host core; -quick or
// -accesses trade precision for time. Results are deterministic: the same
// flags produce byte-identical -json output at any -parallel value.
//
// With -remote the experiments run on a campaign coordinator's worker fleet
// (`c3dd -coordinator`) instead of this host: one job per experiment id,
// sharded across workers, assembled in id order. Determinism makes the move
// invisible — remote -json output is byte-identical to a local run with the
// same flags, and repeated sweeps are served from the coordinator's
// content-addressed result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		list      = flag.Bool("list", false, "list available experiments and exit")
		quick     = flag.Bool("quick", false, "use the reduced quick configuration")
		threads   = flag.Int("threads", 0, "override the number of workload threads")
		accesses  = flag.Int("accesses", 0, "override accesses per thread")
		scale     = flag.Int("scale", 0, "override the capacity/footprint scale factor")
		sockets   = flag.Int("sockets", 0, "override the socket count (where the experiment allows it)")
		topology  = flag.String("topology", "", "fabric topology: p2p, ring, mesh or full (default: each machine's socket-count default; the scaling experiment sweeps its own grid)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the paper's nine)")
		specArg   = flag.String("spec", "", "workload-spec document: a file path or preset:<name>; runs the campaign on the spec's workload instead of the paper suite (combine with -workloads to mix)")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS; results identical at any value)")
		sampleArg = flag.String("sample", "", "SMARTS-style sampled simulation schedule, e.g. stretch=1400,warm=60,win=60[,seed=S]; result cells carry 95% confidence half-widths and campaigns run several times faster (default: full detailed simulation)")
		seed      = flag.Int64("seed", 0, "workload generation seed (0 reproduces the default runs)")
		asJSON    = flag.Bool("json", false, "emit a JSON array of results instead of text tables")
		asCSV     = flag.Bool("csv", false, "emit each result table as CSV instead of text")
		verbose   = flag.Bool("v", false, "print progress for every completed simulation")
		remote    = flag.String("remote", "", "campaign coordinator URL: run experiments on its worker fleet instead of locally")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("c3dexp", c3d.Version())
		return
	}

	if *list {
		if *remote != "" {
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stop()
			caps, err := api.NewClient(*remote).Capabilities(ctx)
			exitOn(err)
			fmt.Printf("experiments offered by %s (version %s):\n", *remote, caps.Version)
			for _, e := range caps.Experiments {
				fmt.Printf("  %-8s %-9s %s\n", e.ID, e.Paper, e.Description)
			}
			return
		}
		fmt.Println("available experiments:")
		for _, e := range c3d.Experiments() {
			fmt.Printf("  %-8s %-9s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "c3dexp: -exp is required (use -list to see the choices)")
		os.Exit(2)
	}
	if *asJSON && *asCSV {
		fmt.Fprintln(os.Stderr, "c3dexp: -json and -csv are mutually exclusive")
		os.Exit(2)
	}
	if *asCSV && *exp == "all" {
		// Tables have different column sets, so concatenating them would be
		// malformed CSV; -json handles multi-experiment output.
		fmt.Fprintln(os.Stderr, "c3dexp: -csv needs a single experiment (use -json for -exp all)")
		os.Exit(2)
	}

	params := c3d.Params{
		Quick:       *quick,
		Sockets:     *sockets,
		Topology:    *topology,
		Threads:     *threads,
		Accesses:    *accesses,
		Scale:       *scale,
		Parallelism: *parallel,
		Seed:        *seed,
		Sampling:    *sampleArg,
	}
	if *workloads != "" {
		params.Workloads = strings.Split(*workloads, ",")
	}
	if *specArg != "" {
		doc, err := c3d.ReadWorkloadSpec(*specArg)
		exitOn(err)
		params.Spec = doc
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *remote != "" {
		runRemote(ctx, *remote, params, *exp, *asJSON, *asCSV)
		return
	}

	sess, err := params.Session()
	exitOn(err)
	if *verbose {
		sess = sess.WithProgress(func(e c3d.Event) { fmt.Fprintln(os.Stderr, e) })
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = c3d.ExperimentIDs()
	}
	var results []c3d.ExperimentResult
	for _, id := range ids {
		start := time.Now()
		result, err := sess.Experiment(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c3dexp: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch {
		case *asJSON:
			results = append(results, *result)
		case *asCSV:
			if err := result.Table.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "c3dexp: %s: %v\n", id, err)
				os.Exit(1)
			}
		default:
			fmt.Printf("== %s (%s): %s ==\n", result.ID, result.Paper, result.Description)
			fmt.Print(result.Table.String())
			fmt.Printf("-- completed in %v --\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if *asJSON {
		exitOn(c3d.WriteResultsJSON(os.Stdout, results))
	}
}

// runRemote executes the sweep on a campaign coordinator's fleet via
// c3d.RemoteSweep and prints in the same formats as the local path. The
// -json bytes are identical to a local run with the same flags — assembly is
// in experiment order and every job is deterministic.
func runRemote(ctx context.Context, remote string, params c3d.Params, exp string, asJSON, asCSV bool) {
	start := time.Now()
	results, err := c3d.RemoteSweep(ctx, api.NewClient(remote), params, exp)
	exitOn(err)
	switch {
	case asJSON:
		exitOn(c3d.WriteResultsJSON(os.Stdout, results))
	case asCSV:
		for _, result := range results {
			exitOn(result.Table.WriteCSV(os.Stdout))
		}
	default:
		for _, result := range results {
			fmt.Printf("== %s (%s): %s ==\n", result.ID, result.Paper, result.Description)
			fmt.Print(result.Table.String())
			fmt.Println()
		}
		fmt.Printf("-- %d experiment(s) completed remotely on %s in %v --\n",
			len(results), remote, time.Since(start).Round(time.Millisecond))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3dexp:", err)
		os.Exit(1)
	}
}
