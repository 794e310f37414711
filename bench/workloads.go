package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"c3d/internal/experiments"
	"c3d/internal/machine"
	"c3d/internal/numa"
	"c3d/internal/sample"
	"c3d/internal/workload"
	"c3d/pkg/c3d"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	why  string
	// setup builds everything the first op needs. It is what setup_s times.
	setup func(ctx context.Context, o childOpts) (runner, error)
}

// workloads are the benchmark's workloads in report order. Each one loads a
// different layer; the why strings are BENCHMARK.json's.
var workloads = []benchWorkload{
	{"sim-miss", "facesim in full detail: nearly every access misses the L1 and LLC, so the miss path, fabric, DRAM cache and DRAM do the work", setupSimMiss},
	{"sim-hot", "small skewed footprint: over 85% of accesses hit the L1, so trace generation, the core scheduler and L1 lookups do the work", setupSimHot},
	{"sim-sampled", "sim-miss stream under SMARTS sampling: functional warming fast-forwards 98% of records past the timing model", setupSimSampled},
	{"sweep-fig6", "c3dexp -exp fig6 -quick -json: 45 simulations on the sweep pool with materialised traces, checked against the golden bytes", setupSweep},
	{"service-jobs", "two closed-loop clients submit tiny simulate jobs to an in-process c3dd, so HTTP, JSON, sessions and per-job machine set-up do the work", setupService},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// size holds the input sizes. fullSize is what the benchmark measures;
// tests run tinySize.
type size struct {
	MissAccesses    int `json:"miss_accesses"`    // sim-miss, per thread
	HotAccesses     int `json:"hot_accesses"`     // sim-hot, per thread
	SampledAccesses int `json:"sampled_accesses"` // sim-sampled, per thread
	// SweepAccesses overrides the quick campaign's stream length and
	// SweepWorkloads its workload set; zero values run the campaign exactly
	// as c3dexp ships it, the only shape the golden bytes pin.
	SweepAccesses  int      `json:"sweep_accesses"`
	SweepWorkloads []string `json:"sweep_workloads"`
	// MinJobs is the fewest jobs a service run must time; MaxWarmJobs
	// bounds the untimed jobs before them, for a server that never evicts.
	MinJobs     int `json:"min_jobs"`
	MaxWarmJobs int `json:"max_warm_jobs"`
	// TraceSeconds is how long the profiled phase runs: long enough for a
	// few hundred samples at the profiler's 100 Hz.
	TraceSeconds float64 `json:"trace_seconds"`
}

// The simulations are short (0.2-0.4 s on the 2-vCPU reference box) so a
// run holds dozens of ops, and some of them land between bursts of host
// interference.
var fullSize = size{
	MissAccesses:    31_250,
	HotAccesses:     125_000,
	SampledAccesses: 125_000,
	MinJobs:         1000,
	MaxWarmJobs:     4096,
	TraceSeconds:    2,
}

var tinySize = size{
	MissAccesses:    2_000,
	HotAccesses:     4_000,
	SampledAccesses: 12_000,
	SweepAccesses:   300,
	SweepWorkloads:  []string{"streamcluster"},
	MinJobs:         1,
	MaxWarmJobs:     1,
	TraceSeconds:    0.2,
}

// runner drives one workload inside the child process.
type runner interface {
	// warm runs the untimed ops before timing; for op workloads that is one
	// op, whose output later ops must match.
	warm(ctx context.Context, rep *workloadReport)
	// measure runs timed ops for about d and records the e2e metrics and
	// spans in rep.
	measure(ctx context.Context, d time.Duration, rep *workloadReport)
	// traced runs ops for about d under the CPU profiler and returns the
	// records consumed and their rate.
	traced(ctx context.Context, d time.Duration, rep *workloadReport) (records int64, perSecond float64)
	// finish checks the workload's shape and records what it alone measures.
	finish(ctx context.Context, rep *workloadReport)
	close()
}

// opFunc runs one op, timing its calls into spans, and returns the trace
// records it consumed.
type opFunc func(ctx context.Context, spans map[string]float64) (records int64, err error)

// opLoop is the runner core for workloads made of discrete ops.
type opLoop struct {
	op opFunc
}

func (l opLoop) warm(ctx context.Context, rep *workloadReport) {
	rep.Attempted++
	if _, err := l.op(ctx, map[string]float64{}); err != nil {
		rep.fail(err)
	}
}

// minOps is the fewest timed ops a run makes, however long they take.
const minOps = 3

func (l opLoop) measure(ctx context.Context, d time.Duration, rep *workloadReport) {
	var secs, rates, allocs []float64
	spans := map[string][]float64{}
	var before, after runtime.MemStats
	start := time.Now()
	for n := 1; ; n++ {
		sp := map[string]float64{}
		rep.Attempted++
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		records, err := l.op(ctx, sp)
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			rep.fail(err)
		} else {
			secs = append(secs, el.Seconds())
			rates = append(rates, float64(records)/el.Seconds())
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(records))
			for k, v := range sp {
				spans[k] = append(spans[k], v)
			}
		}
		// Stop before an op that would overrun the run.
		if n >= minOps && time.Since(start)+el > d {
			break
		}
	}
	rep.Ops = len(secs)
	rep.Metrics["accesses_per_s"] = fastest(rates, "records/s")
	rep.Metrics["op_p50_s"] = summarize(secs, "s")
	// Per op, because a collection that empties the sweep's machine pools
	// makes the next op rebuild them.
	rep.Metrics["alloc_bytes_per_access"] = leanest(allocs, "B")
	for k, v := range spans {
		rep.Spans[k] = summarize(v, "s")
	}
}

func (l opLoop) traced(ctx context.Context, d time.Duration, rep *workloadReport) (int64, float64) {
	var total int64
	start := time.Now()
	for time.Since(start) < d {
		rep.Attempted++
		records, err := l.op(ctx, map[string]float64{})
		if err != nil {
			rep.fail(err)
		}
		total += records
	}
	return total, float64(total) / time.Since(start).Seconds()
}

// since records the seconds elapsed from t0 under name and returns now.
func since(spans map[string]float64, name string, t0 time.Time) time.Time {
	now := time.Now()
	spans[name] = now.Sub(t0).Seconds()
	return now
}

// ---- sim-*: one detailed (or sampled) simulation per op ----

// simRunner runs machine.New → workload.NewSource → Machine.RunSource, the
// path every simulation takes, on the 4-socket C3D machine at scale 512.
type simRunner struct {
	opLoop
	name    string
	cfg     machine.Config
	spec    workload.Spec
	gen     workload.Options
	runOpts machine.RunOptions

	digest string
	first  *machine.RunResult
}

func newSimRunner(name string, spec workload.Spec, accesses int, o childOpts, sampling sample.Spec) (runner, error) {
	cfg := machine.DefaultConfig(4, machine.C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &simRunner{
		name:    name,
		cfg:     cfg,
		spec:    spec,
		gen:     workload.Options{Threads: 8, Scale: 512, AccessesPerThread: accesses, SeedOffset: o.Seed},
		runOpts: machine.DefaultRunOptions(),
	}
	r.runOpts.Sampling = sampling
	r.opLoop.op = r.op
	// The first machine and source: construction, registry lookups and the
	// generator's readers.
	machine.New(cfg)
	src, err := workload.NewSource(spec, r.gen)
	if err != nil {
		return nil, err
	}
	for t := 0; t < src.Threads(); t++ {
		src.OpenThread(t).Next()
	}
	return r, nil
}

func setupSimMiss(_ context.Context, o childOpts) (runner, error) {
	spec, err := workload.Get("facesim")
	if err != nil {
		return nil, err
	}
	return newSimRunner("sim-miss", spec, o.Size.MissAccesses, o, sample.Spec{})
}

// benchHot is a workload defined for the benchmark: a paper-scale 2 MiB
// shared plus 2 MiB private footprint per thread with a steep skew, so most
// accesses stay in the L1.
var benchHot = workload.Spec{
	Name: "bench-hot", Class: workload.Parallel,
	SharedBytes: 2 << 20, PrivateBytesPerThread: 2 << 20,
	SharedFraction: 0.2, CommFraction: 0, ReadFraction: 0.9,
	LocalitySkew: 3.0, SpatialRun: 8, MeanGap: 5,
	AccessesPerThread: 125_000, InitFraction: 0.2,
	DefaultThreads: 8, PreferredPolicy: numa.FirstTouch2, Seed: 501,
}

func setupSimHot(_ context.Context, o childOpts) (runner, error) {
	return newSimRunner("sim-hot", benchHot, o.Size.HotAccesses, o, sample.Spec{})
}

// sampledSpec is the sample-smoke schedule: 60 detailed records in every
// 2,860 per thread.
const sampledSpec = "stretch=2800,warm=30,win=30,seed=1"

func setupSimSampled(_ context.Context, o childOpts) (runner, error) {
	spec, err := workload.Get("facesim")
	if err != nil {
		return nil, err
	}
	sampling, err := sample.Parse(sampledSpec)
	if err != nil {
		return nil, err
	}
	return newSimRunner("sim-sampled", spec, o.Size.SampledAccesses, o, sampling)
}

func (r *simRunner) op(ctx context.Context, spans map[string]float64) (int64, error) {
	t := time.Now()
	m := machine.New(r.cfg)
	t = since(spans, "machine.new_s", t)
	src, err := workload.NewSource(r.spec, r.gen)
	if err != nil {
		return 0, err
	}
	t = since(spans, "workload.newsource_s", t)
	res, err := m.RunSource(ctx, src, r.runOpts)
	if err != nil {
		return 0, err
	}
	t = since(spans, "machine.runsource_s", t)
	raw, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	since(spans, "bench.encode_s", t)

	var records int64
	for t := 0; t < src.Threads(); t++ {
		records += int64(src.ThreadLen(t))
	}
	if r.first == nil {
		r.first, r.digest = &res, digest
	} else if digest != r.digest {
		return records, fmt.Errorf("%s: result digest %s differs from the first op's %s", r.name, digest[:12], r.digest[:12])
	}
	return records, nil
}

func (r *simRunner) finish(_ context.Context, rep *workloadReport) {
	// Trace generation alone: drain the same source's thread readers once,
	// outside the machine.
	src, err := workload.NewSource(r.spec, r.gen)
	if err != nil {
		rep.fail(err)
		return
	}
	t0 := time.Now()
	var n int64
	for t := 0; t < src.Threads(); t++ {
		rr := src.OpenThread(t)
		for _, ok := rr.Next(); ok; _, ok = rr.Next() {
			n++
		}
	}
	rep.Spans["workload.gen_ns_per_access"] = single(float64(time.Since(t0).Nanoseconds())/float64(n), "ns")

	if r.first == nil {
		rep.Guard = "no op succeeded"
		return
	}
	rep.Model = modelCounters(r.first)
	rep.Digest = r.digest
	l1, detailed := rep.Model["model.l1_hit_rate"], rep.Model["model.sample_detailed_fraction"]
	switch {
	case r.name == "sim-miss" && l1 > 0.10:
		rep.Guard = fmt.Sprintf("sim-miss: L1 hit rate %.3f > 0.10", l1)
	case r.name == "sim-hot" && l1 < 0.85:
		rep.Guard = fmt.Sprintf("sim-hot: L1 hit rate %.3f < 0.85", l1)
	case r.name == "sim-sampled" && detailed > 0.05:
		rep.Guard = fmt.Sprintf("sim-sampled: detailed fraction %.3f > 0.05", detailed)
	}
}

func (r *simRunner) close() {}

// modelCounters are the simulated statistics of a run. They set how much
// work each layer does, and repeat exactly for a given seed.
func modelCounters(res *machine.RunResult) map[string]float64 {
	c := res.Counters
	acc := float64(c.Loads + c.Stores)
	per := func(v uint64) float64 {
		if acc == 0 {
			return 0
		}
		return float64(v) / acc
	}
	m := map[string]float64{
		"model.cycles":                   float64(res.Cycles),
		"model.ipc":                      res.IPC(),
		"model.l1_hit_rate":              1 - per(c.LLCAccesses),
		"model.llc_miss_rate":            c.LLCMissRate(),
		"model.dramcache_hit_rate":       res.DRAMCacheHitRate,
		"model.fabric_bytes_per_access":  per(res.InterSocketBytes),
		"model.fabric_msgs_per_access":   per(res.InterSocketMessages),
		"model.remote_mem_fraction":      c.RemoteMemFraction(),
		"model.mem_accesses_per_kacc":    1000 * per(c.MemAccesses()),
		"model.broadcasts_per_kacc":      1000 * per(c.Broadcasts),
		"model.dir_recalls":              float64(c.DirRecalls),
		"model.mean_load_latency_cycles": c.MeanLoadLatency,
		"model.sample_windows":           0,
		"model.sample_detailed_fraction": 1,
	}
	if s := res.Sampling; s != nil && s.TotalAccesses > 0 {
		m["model.sample_windows"] = float64(s.Windows)
		m["model.sample_detailed_fraction"] = float64(s.DetailedAccesses) / float64(s.TotalAccesses)
	}
	return m
}

// ---- sweep-fig6: one quick fig6 campaign per op ----

// sweepRunner runs the exact `c3dexp -exp fig6 -quick -json` path: a
// session from quick Params, Experiment("fig6"), WriteResultsJSON.
type sweepRunner struct {
	opLoop
	params  c3d.Params
	records int64
	golden  []byte // nil when the run's shape is not the golden one
	first   []byte
}

// goldenPath is the committed fig6 quick output, relative to the repository
// root.
const goldenPath = "pkg/c3d/testdata/fig6-quick-golden.json"

func setupSweep(_ context.Context, o childOpts) (runner, error) {
	r := &sweepRunner{params: c3d.Params{
		Quick:       true,
		Parallelism: 2,
		Seed:        o.Seed,
		Accesses:    o.Size.SweepAccesses,
		Workloads:   o.Size.SweepWorkloads,
	}}
	r.opLoop.op = r.op
	quick := experiments.QuickConfig()
	accesses, names := quick.AccessesPerThread, workload.Names()
	if o.Size.SweepAccesses > 0 {
		accesses = o.Size.SweepAccesses
	}
	if len(o.Size.SweepWorkloads) > 0 {
		names = o.Size.SweepWorkloads
	}
	// fig6 runs the baseline and each DRAM-cache design on every workload.
	sims := len(names) * len(machine.EvaluatedDesigns())
	r.records = int64(sims * quick.Threads * accesses)
	if o.Seed == 0 && o.Size.SweepAccesses == 0 && len(o.Size.SweepWorkloads) == 0 {
		golden, err := os.ReadFile(filepath.Join(o.Root, goldenPath))
		if err != nil {
			return nil, err
		}
		r.golden = golden
	}
	if _, err := r.params.Session(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *sweepRunner) op(ctx context.Context, spans map[string]float64) (int64, error) {
	t := time.Now()
	sess, err := r.params.Session()
	if err != nil {
		return 0, err
	}
	t = since(spans, "c3d.session_s", t)
	res, err := sess.Experiment(ctx, "fig6")
	if err != nil {
		return 0, err
	}
	t = since(spans, "c3d.experiment_s", t)
	var buf bytes.Buffer
	if err := c3d.WriteResultsJSON(&buf, []c3d.ExperimentResult{*res}); err != nil {
		return 0, err
	}
	since(spans, "c3d.write_results_s", t)
	got := buf.Bytes()
	if r.golden != nil && !bytes.Equal(got, r.golden) {
		return r.records, fmt.Errorf("sweep-fig6: output differs from %s", goldenPath)
	}
	if r.first == nil {
		r.first = got
	} else if !bytes.Equal(got, r.first) {
		return r.records, fmt.Errorf("sweep-fig6: output differs from the first op's")
	}
	return r.records, nil
}

func (r *sweepRunner) finish(_ context.Context, rep *workloadReport) {
	if r.first == nil {
		rep.Guard = "no op succeeded"
		return
	}
	sum := sha256.Sum256(r.first)
	rep.Digest = hex.EncodeToString(sum[:])
}

func (r *sweepRunner) close() {}
