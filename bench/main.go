// Command bench is the repository's benchmark. It runs five workloads that
// drive the simulator, the fig6 campaign and the job service through their
// public functions, and reports host-time metrics end to end and layer by
// layer. See README.md for the workloads, the metrics and how to read them.
//
// The parent process runs each workload in a child process of its own binary
// (selected by an environment variable), so set-up time and peak memory are
// per workload.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childEnv carries a child's options; its presence makes the binary a child.
const childEnv = "C3DBENCH_CHILD"

// readyLine is what a child prints on standard output once set up.
const readyLine = "ready"

// setupProbes is how many extra children per run only set the workload up
// and exit; setup_s is the median over them and the measured child, taken
// half before and half after it so a burst of host load skews few of them.
const setupProbes = 8

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// childOpts tells a child what to run.
type childOpts struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	SetupOnly bool    `json:"setup_only"`
	Size      size    `json:"size"`
	// Root is the repository root; Out, when set, receives CPU profiles.
	Root string `json:"root"`
	Out  string `json:"out"`
}

func childMain(spec string) int {
	var o childOpts
	if err := json.Unmarshal([]byte(spec), &o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad %s: %v\n", childEnv, err)
		return 2
	}
	rep, err := runChild(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if rep == nil {
		return 0
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if _, err := os.Stdout.Write(append(line, '\n')); err != nil {
		return 1
	}
	return 0
}

// runChild sets the workload up, announces readiness on ready, and unless
// o.SetupOnly runs the untimed ops, the timed ops and, with o.Trace, the
// profiled ones.
func runChild(ctx context.Context, o childOpts, ready io.Writer) (*workloadReport, error) {
	w, err := lookupWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	r, err := w.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.Workload, err)
	}
	defer r.close()
	if _, err := fmt.Fprintln(ready, readyLine); err != nil {
		return nil, err
	}
	if o.SetupOnly {
		return nil, nil
	}
	rep := &workloadReport{Workload: o.Workload, Metrics: map[string]metric{}, Spans: map[string]metric{}}
	r.warm(ctx, rep)
	r.measure(ctx, seconds(o.Seconds), rep)
	if o.Trace {
		if err := traceOp(ctx, r, rep, o); err != nil {
			return nil, err
		}
	}
	r.finish(ctx, rep)
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceOp runs the workload's traced ops under the CPU profiler and records
// the per-layer split of their CPU time.
func traceOp(ctx context.Context, r runner, rep *workloadReport, o childOpts) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	records, rate := r.traced(ctx, seconds(o.Size.TraceSeconds), rep)
	pprof.StopCPUProfile()
	if o.Out != "" {
		if err := os.WriteFile(filepath.Join(o.Out, o.Workload+".pprof"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	rep.Layers = layerMetrics(p, records)
	// Against the untraced median: the traced phase's rate is a mean, not the
	// fastest slice.
	if untraced := rep.Metrics["accesses_per_s"].Median; untraced > 0 {
		rep.Layers["bench.trace_overhead"] = 1 - rate/untraced
	}
	return nil
}

// measureWorkload runs one workload's measured child between two halves of
// its set-up probes. It adds the metrics only the parent can take: set-up
// time from process start to ready, and the child's peak resident set.
func measureWorkload(ctx context.Context, exe string, o childOpts) (*workloadReport, error) {
	var setups []float64
	probe := o
	probe.SetupOnly = true
	probes := func(n int) error {
		for i := 0; i < n; i++ {
			s, _, _, err := spawn(ctx, exe, probe)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := probes(setupProbes / 2); err != nil {
		return nil, err
	}
	s, rep, rssKiB, err := spawn(ctx, exe, o)
	if err != nil {
		return nil, err
	}
	if err := probes(setupProbes - setupProbes/2); err != nil {
		return nil, err
	}
	rep.Metrics["setup_s"] = summarize(append(setups, s), "s")
	rep.Metrics["peak_rss_mb"] = single(float64(rssKiB)/1024, "MiB")
	return rep, nil
}

// spawn runs one child and returns the seconds from its start to its ready
// line, its report (nil for a set-up probe) and its peak RSS in KiB.
func spawn(ctx context.Context, exe string, o childOpts) (float64, *workloadReport, int64, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	spec, err := json.Marshal(o)
	if err != nil {
		return 0, nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	var setup float64
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == readyLine {
			setup = time.Since(start).Seconds()
			continue
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain so the child is not blocked writing when Wait reaps it.
		_, _ = io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s: child: %w", o.Workload, err)
	}
	if scanErr != nil {
		return 0, nil, 0, fmt.Errorf("%s: reading child output: %w", o.Workload, scanErr)
	}
	if setup == 0 {
		return 0, nil, 0, fmt.Errorf("%s: child exited before it was ready", o.Workload)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	if o.SetupOnly {
		return setup, nil, rss, nil
	}
	rep := &workloadReport{}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return 0, nil, 0, fmt.Errorf("%s: child report: %w", o.Workload, err)
	}
	return setup, rep, rss, nil
}

// fileReport is what -json writes and -compare reads.
type fileReport struct {
	Commit  string  `json:"commit,omitempty"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	// Runs holds one report per workload for each back-to-back run.
	Runs [][]*workloadReport `json:"runs"`
}

// commit is the VCS revision the binary was built from, if recorded.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// findRoot returns the repository root: the working directory or its parent,
// whichever holds the golden campaign output.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or its bench directory")
}

// normalizeArgs rewrites "-trace 0|1" as "-trace=0|1": the flag package only
// takes a boolean's value after "=".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seed := fs.Int64("seed", 0, "input seed: offsets every generated stream")
	secs := fs.Float64("seconds", 20, "seconds of timed ops per workload")
	trace := fs.Bool("trace", false, "also run about 2 s of ops per workload under the CPU profiler and report the per-layer split")
	jsonOut := fs.String("json", "", "write the full report to this file")
	out := fs.String("out", "", "directory for the traced ops' CPU profiles")
	runs := fs.Int("runs", 1, "back-to-back runs of every selected workload")
	cmp := fs.Bool("compare", false, "compare two -json reports: -compare parent.json change.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *runs < 1 || *secs <= 0 {
		fs.Usage()
		return 2
	}
	var selected []string
	if *names == "" {
		for _, w := range workloads {
			selected = append(selected, w.name)
		}
	} else {
		selected = strings.Split(*names, ",")
	}
	for _, name := range selected {
		if _, err := lookupWorkload(name); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	opts := childOpts{Seed: *seed, Seconds: *secs, Trace: *trace, Size: fullSize, Root: root, Out: *out}
	rep, err := runAll(context.Background(), exe, selected, *runs, opts, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	ok := true
	for _, r := range rep.Runs {
		for _, w := range r {
			ok = ok && w.correct()
		}
	}
	if len(selected) == 1 && *runs == 1 {
		if err := printSummary(stdout, rep.Runs[0][0], *trace); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll measures every selected workload runs times over, printing each
// report as it completes.
func runAll(ctx context.Context, exe string, selected []string, runs int, o childOpts, stdout, stderr io.Writer) (*fileReport, error) {
	rep := &fileReport{
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
	}
	for i := 0; i < runs; i++ {
		var one []*workloadReport
		for _, name := range selected {
			fmt.Fprintf(stderr, "bench: run %d/%d: %s\n", i+1, runs, name)
			wo := o
			wo.Workload = name
			w, err := measureWorkload(ctx, exe, wo)
			if err != nil {
				return nil, err
			}
			printReport(stdout, w)
			one = append(one, w)
		}
		rep.Runs = append(rep.Runs, one)
	}
	return rep, nil
}

func writeReport(path string, rep *fileReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes one workload's report for a reader.
func printReport(w io.Writer, r *workloadReport) {
	status := "correct"
	if !r.correct() {
		status = "NOT CORRECT"
	}
	fmt.Fprintf(w, "%s: %d timed ops, %d attempted, %d failed (error_rate %.4f), %s\n",
		r.Workload, r.Ops, r.Attempted, r.Failed, r.errorRate(), status)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if r.Guard != "" {
		fmt.Fprintf(w, "  shape guard failed: %s\n", r.Guard)
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-10s q1 %-12.6g q3 %-12.6g n %d\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	for _, k := range sortedKeys(r.Spans) {
		m := r.Spans[k]
		fmt.Fprintf(w, "  span %-23s %14.6g %-10s n %d\n", k, m.Value, m.Unit, m.N)
	}
	for _, k := range sortedKeys(r.Layers) {
		fmt.Fprintf(w, "  layer %-22s %14.6g\n", k, r.Layers[k])
	}
	for _, k := range sortedKeys(r.Model) {
		fmt.Fprintf(w, "  %-28s %14.6g\n", k, r.Model[k])
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summaryLine is the one-line result of a single-workload run: the
// end-to-end metrics BENCHMARK.json declares, or its per-layer metrics for a
// traced run.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printSummary(w io.Writer, r *workloadReport, traced bool) error {
	line := summaryLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueInUnit{}}
	if traced {
		for _, d := range perLayerUnits() {
			line.Metrics[d.Name] = valueInUnit{r.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range declared {
			m, ok := r.Metrics[d.Name]
			if !ok {
				return fmt.Errorf("%s: no %s measured", r.Workload, d.Name)
			}
			line.Metrics[d.Name] = valueInUnit{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
