// Command c3dcheck verifies the C3D coherence protocol the way §IV-C of the
// paper does with Murϕ: exhaustive explicit-state exploration of a small
// configuration, checking the Single-Writer-Multiple-Reader invariant, the
// data-value invariant (per-location sequential consistency) and absence of
// deadlock. It is a thin client of pkg/c3d — the same Session API the c3dd
// daemon serves.
//
// Reports are bit-identical at any -parallel value, so -json output can be
// diffed across machines and worker counts (CI does exactly that).
//
// Usage:
//
//	c3dcheck                         # 2- and 3-socket, both protocol variants
//	c3dcheck -sockets 2 -stores 2    # deeper 2-socket exploration
//	c3dcheck -max-states 1000000     # bound the larger searches
//	c3dcheck -parallel 8 -v          # 8 workers, progress on stderr
//	c3dcheck -json                   # machine-readable, parallelism-independent
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"c3d/pkg/c3d"
)

func main() {
	var (
		sockets   = flag.Int("sockets", 3, "largest socket count to verify")
		loads     = flag.Int("loads", 1, "loads per core")
		stores    = flag.Int("stores", 1, "stores per core")
		maxStates = flag.Int("max-states", 0, "bound the search (0 = exhaustive)")
		baseOnly  = flag.Bool("base-only", false, "verify only the base C3D protocol (skip the c3d-full-dir variant)")
		parallel  = flag.Int("parallel", 0, "model-checker workers (0 = GOMAXPROCS; reports identical at any value)")
		asJSON    = flag.Bool("json", false, "emit the reports as a JSON array (deterministic: no wall-clock fields)")
		verbose   = flag.Bool("v", false, "print exploration progress to stderr")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("c3dcheck", c3d.Version())
		return
	}

	sess, err := c3d.Params{Parallelism: *parallel}.Session()
	exitOn(err)
	if *verbose {
		sess = sess.WithProgress(func(e c3d.Event) { fmt.Fprintln(os.Stderr, e) })
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if !*asJSON {
		fmt.Println("verifying the C3D coherence protocol (SWMR, data-value, deadlock freedom)...")
	}
	result, err := sess.Verify(ctx, c3d.VerifyRequest{
		Sockets:       *sockets,
		LoadsPerCore:  *loads,
		StoresPerCore: *stores,
		MaxStates:     *maxStates,
		BaseOnly:      *baseOnly,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		exitOn(err)
	}
	interrupted := errors.Is(err, context.Canceled)
	if *asJSON {
		exitOn(c3d.WriteReportsJSON(os.Stdout, result.Reports))
		if interrupted || !result.Passed() {
			os.Exit(1)
		}
		return
	}
	fmt.Print(result.Table().String())
	for _, rep := range result.Reports {
		if !rep.Passed() {
			fmt.Println()
			fmt.Println(rep.String())
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "c3dcheck: interrupted")
		os.Exit(1)
	}
	if !result.Passed() {
		fmt.Fprintln(os.Stderr, "c3dcheck: FAILED")
		os.Exit(1)
	}
	fmt.Println("all invariants hold in every reachable state")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3dcheck:", err)
		os.Exit(1)
	}
}
