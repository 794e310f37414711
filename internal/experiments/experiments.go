// Package experiments reproduces every table and figure of the C3D paper's
// evaluation: the remote-access characterisation (Table I), the NUMA
// bottleneck analysis (Fig. 2), the cache-capacity study (Fig. 3), the
// 4-socket and 2-socket design comparisons (Figs. 6-7), the memory and
// inter-socket traffic breakdowns (Figs. 8-9), the latency sensitivity
// studies (Figs. 10-11), the broadcast-filter study (§VI-C), and the protocol
// verification (§IV-C).
//
// Each experiment returns a structured result with the same rows/series the
// paper reports plus a formatted table; cmd/c3dexp prints them (the README's
// Quickstart and scaling-study sections show how), the repository-level
// benchmarks regenerate them, and pkg/c3d/testdata/fig6-quick-golden.json
// pins the quick-scale Fig. 6 bytes.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"c3d/internal/interconnect"
	"c3d/internal/machine"
	"c3d/internal/numa"
	"c3d/internal/sample"
	"c3d/internal/stats"
	"c3d/internal/sweep"
	"c3d/internal/trace"
	"c3d/internal/workload"
	"c3d/internal/wspec"
)

// Config parameterises an experiment run. The zero value is not usable; start
// from DefaultConfig (paper-scale workloads) or QuickConfig (minutes-scale).
type Config struct {
	// Sockets is the machine size for experiments that do not fix it
	// themselves (Fig. 7 always uses 2, everything else 4).
	Sockets int
	// Topology pins the fabric topology for every machine the experiment
	// builds (empty = the socket count's default: p2p for 2, ring beyond).
	// The scaling experiment sweeps its own topology grid and ignores it.
	Topology interconnect.Topology
	// Threads is the number of workload threads (and cores used); each
	// socket gets Threads/Sockets cores, rounded up.
	Threads int
	// Scale divides cache capacities and workload footprints together.
	Scale int
	// AccessesPerThread overrides each workload's default when positive.
	AccessesPerThread int
	// WarmupFraction is the fraction of each thread's stream used to warm
	// caches before measurement.
	WarmupFraction float64
	// Workloads is the resolved workload set (nil means the paper's nine).
	// Callers resolve names before a campaign starts — the SDK session
	// does, shadowing catalog names with its workload-spec document — so
	// experiments only range over specs.
	Workloads []workload.Spec
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS). It only
	// affects wall-clock time: results are bit-identical at any value.
	Parallelism int
	// Sampling, when enabled, runs every simulation in SMARTS-style sampled
	// mode under this schedule (see internal/sample): detailed simulation
	// only inside warm-up and measured windows, functional warming between
	// them, and per-metric 95% confidence half-widths on every result.
	// Results remain bit-identical at any Parallelism for a fixed (config,
	// seed, spec).
	Sampling sample.Spec
	// Seed offsets workload generation. Zero reproduces the default runs;
	// the same seed always regenerates the same traces, and every design
	// sees the same trace for a given workload regardless of seed.
	Seed int64
	// Progress, if non-nil, receives a structured event per completed
	// simulation (Event.String reproduces the old progress lines).
	Progress func(Event)
}

// DefaultConfig reproduces the paper's setup: 32 threads, the full workload
// suite, 200k accesses per thread, capacity scale 64.
func DefaultConfig() Config {
	return Config{
		Sockets:        4,
		Threads:        32,
		Scale:          workload.DefaultScale,
		WarmupFraction: 0.25,
	}
}

// QuickConfig is a reduced configuration for tests, benchmarks and smoke
// runs: 8 threads, short access streams and a more aggressive capacity scale
// (so the short streams still exhibit the reuse that the full-scale runs
// get from their length). The qualitative shape of every result is
// preserved; absolute magnitudes are noisier.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = 8
	cfg.AccessesPerThread = 6000
	cfg.Scale = 512
	return cfg
}

// workloads returns the workload set for this config.
func (c Config) workloads() []workload.Spec {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	names := workload.Names()
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		out[i] = workload.MustGet(n)
	}
	return out
}

// workloadNames returns the names of the workload set, in order.
func (c Config) workloadNames() []string {
	specs := c.workloads()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// short reports whether the campaign pins short streams, under 50k accesses
// per thread, as quick configurations do. Short campaigns bound the larger
// verification search and stop the scaling sweep at 8 sockets.
func (c Config) short() bool {
	return c.AccessesPerThread > 0 && c.AccessesPerThread < 50_000
}

// tableNames orders result-map keys for rendering: catalog order first (the
// paper's suite ordering, then mcf, then the presets), then any remaining
// names — campaign-local workload specs — sorted.
func tableNames[M ~map[string]V, V any](m M) []string {
	seen := make(map[string]bool, len(m))
	var out []string
	for _, n := range wspec.Names() {
		if _, ok := m[n]; ok && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range sortedKeys(m) {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// machineConfig builds the machine configuration for a design under this
// experiment config.
func (c Config) machineConfig(sockets int, design machine.Design, policy numa.Policy) machine.Config {
	mc := machine.DefaultConfig(sockets, design)
	mc.Topology = c.Topology
	mc.Scale = c.Scale
	mc.MemPolicy = policy
	mc.CoresPerSocket = (c.Threads + sockets - 1) / sockets
	return mc
}

// traceCache memoises materialised traces: several experiments run the same
// workload through many machine configurations, and generation is a
// measurable fraction of a quick run.
//
// The memo is bounded by records, not entries; a trace's records are its
// init section plus threads × accesses. A trace over the budget is never
// materialised: its jobs stream from the generator, so campaigns of any
// length run at bounded memory. Smaller traces stay resident, least recently
// used evicted first, while their records total at most the budget. Results are bit-identical either way — a
// replayed trace and its generator emit the same records.
type traceCache struct {
	mu      sync.Mutex
	budget  int // bound on resident records
	records int // records currently resident
	traces  map[string]cachedTrace
	// order holds the cached keys from least to most recently used.
	order []string
	// inflight dedupes concurrent generations of the same key
	// (singleflight): sweep workers claim jobs workload-major, so at every
	// workload boundary several workers miss the cache for the same trace
	// at once and must share one generation, not race P of them.
	inflight map[string]*traceCall
}

type cachedTrace struct {
	src     trace.Source
	records int
}

// traceCall is one in-flight generation; done is closed once src/err are
// set.
type traceCall struct {
	done chan struct{}
	src  trace.Source
	err  error
}

// traceBudget is the default record budget: 16M records (384 MiB of 24-byte
// records). It holds a quick campaign's whole working set — fig6-quick is
// nine traces of 8 threads × 6000 accesses plus a 9000-record init — and two
// paper-scale traces (32 threads × 200k accesses plus a 300k init, 6.7M
// records each), so the default campaigns replay memoised traces as workers
// move from one workload to the next. Longer runs stream.
const traceBudget = 1 << 24

// sharedTraces is the process-wide memo every campaign uses. Tests swap it
// for one with another budget.
var sharedTraces = newTraceCache(traceBudget)

func newTraceCache(budget int) *traceCache {
	return &traceCache{
		budget:   budget,
		traces:   make(map[string]cachedTrace),
		inflight: make(map[string]*traceCall),
	}
}

// traceKey identifies a generated trace. Fingerprint distinguishes
// workload-spec documents that reuse a name across campaigns (built-in specs
// leave it empty): without it, two different specs named "mix" sharing a
// process would collide in the memo and one campaign would silently replay
// the other's trace.
func traceKey(spec workload.Spec, opts workload.Options) string {
	return fmt.Sprintf("%s/%s/%d/%d/%d/%d", spec.Name, spec.Fingerprint, opts.Threads, opts.Scale, opts.AccessesPerThread, opts.SeedOffset)
}

// get returns the trace for spec under opts: replayed from the memo, or
// streamed from its generator when it is over budget.
func (tc *traceCache) get(spec workload.Spec, opts workload.Options) (trace.Source, error) {
	key := traceKey(spec, opts)
	tc.mu.Lock()
	if e, ok := tc.traces[key]; ok {
		tc.touch(key)
		tc.mu.Unlock()
		return e.src, nil
	}
	if call, ok := tc.inflight[key]; ok {
		// Another worker is generating this trace: wait for its result
		// instead of duplicating the work.
		tc.mu.Unlock()
		<-call.done
		return call.src, call.err
	}
	call := &traceCall{done: make(chan struct{})}
	tc.inflight[key] = call
	tc.mu.Unlock()

	// Generate outside the lock: generations of *different* keys must not
	// serialise behind one another.
	src, err := workload.NewSource(spec, opts)
	records := 0
	if err == nil {
		records = traceRecords(src)
		if records <= tc.budget {
			var tr *trace.Trace
			if tr, err = trace.Materialize(src); err == nil {
				// The materialised copy keeps the generator's page span,
				// so its runs end the placement pre-pass early too.
				src = trace.WithPageSpan(tr.Source(), trace.PageSpan(src))
			}
		}
	}

	tc.mu.Lock()
	delete(tc.inflight, key)
	if err == nil && records <= tc.budget {
		for tc.records+records > tc.budget {
			oldest := tc.order[0]
			tc.order = tc.order[1:]
			tc.records -= tc.traces[oldest].records
			delete(tc.traces, oldest)
		}
		tc.traces[key] = cachedTrace{src: src, records: records}
		tc.records += records
		tc.order = append(tc.order, key)
	}
	tc.mu.Unlock()
	call.src, call.err = src, err
	close(call.done)
	return src, err
}

// traceRecords is the number of records a materialised src keeps resident:
// its init section and every thread's stream.
func traceRecords(src trace.Source) int {
	n := src.InitLen()
	for t := range src.Threads() {
		n += src.ThreadLen(t)
	}
	return n
}

// touch moves key to the most-recently-used end. Callers hold tc.mu.
func (tc *traceCache) touch(key string) {
	for i, k := range tc.order {
		if k == key {
			copy(tc.order[i:], tc.order[i+1:])
			tc.order[len(tc.order)-1] = key
			return
		}
	}
}

// job is one simulation: a workload run on one machine configuration.
type job struct {
	key      string
	spec     workload.Spec
	mcfg     machine.Config
	seedOff  int64
	accesses int
}

// runJobs executes the jobs on the sweep runner and returns results keyed by
// job key. Ordering, seeding and error selection are deterministic: the same
// jobs produce identical results at any Parallelism. Cancelling the context
// aborts the sweep early (in-flight simulations stop between accesses) and
// surfaces ctx's error.
func (c Config) runJobs(ctx context.Context, jobs []job) (map[string]machine.RunResult, error) {
	sjobs := make([]sweep.Job[machine.RunResult], len(jobs))
	for i, j := range jobs {
		j := j
		// Every design simulating a given workload must share its trace, so
		// the seed depends on the workload stream (seedOff) and the campaign
		// (Seed), never on the design part of the key.
		sjobs[i] = sweep.Job[machine.RunResult]{
			Key:  j.key,
			Seed: j.seedOff + c.Seed,
			Run: func(ctx context.Context, seed int64) (machine.RunResult, error) {
				return c.runOne(ctx, j, seed)
			},
		}
	}
	var progress func(sweep.Progress)
	if c.Progress != nil {
		progress = func(p sweep.Progress) {
			if p.Err != nil {
				// p.Err already names the job key (sweep wraps it).
				c.Progress(Event{Kind: EventSimulationFailed, Job: p.Key, Done: p.Done, Total: p.Total, Elapsed: p.Elapsed, Err: p.Err})
				return
			}
			c.Progress(Event{Kind: EventSimulationDone, Job: p.Key, Done: p.Done, Total: p.Total, Elapsed: p.Elapsed})
		}
	}
	results, err := sweep.Run(ctx, sjobs, sweep.Options{
		Parallelism: c.Parallelism,
		Progress:    progress,
	})
	out := make(map[string]machine.RunResult, len(results))
	for _, r := range results {
		if r.Err == nil {
			out[r.Key] = r.Value
		}
	}
	if err != nil {
		// err already carries the failing job's key via sweep's wrapping.
		return out, fmt.Errorf("experiment %w", err)
	}
	return out, nil
}

func (c Config) runOne(ctx context.Context, j job, seed int64) (machine.RunResult, error) {
	accesses := c.AccessesPerThread
	if j.accesses > 0 {
		accesses = j.accesses
	}
	opts := workload.Options{
		Threads:           c.Threads,
		Scale:             c.Scale,
		AccessesPerThread: accesses,
		SeedOffset:        seed,
	}
	runOpts := machine.RunOptions{WarmupFraction: c.WarmupFraction, Sampling: c.Sampling}
	// Validate before construction: machine.New panics on a bad config, and
	// a panic in a sweep worker kills the whole process (CLI or daemon). A
	// session-level check cannot catch everything — experiments fix their
	// own socket counts, so a topology that suits the session's shape can
	// still be unhostable here (fig7's 2-socket machines under -topology
	// ring) — and must surface as a job error, not a crash.
	if err := j.mcfg.Validate(); err != nil {
		return machine.RunResult{}, err
	}
	src, err := sharedTraces.get(j.spec, opts)
	if err != nil {
		return machine.RunResult{}, err
	}
	return machine.New(j.mcfg).RunSource(ctx, src, runOpts)
}

// key builds a stable job key.
func key(parts ...interface{}) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(p)
	}
	return s
}

// geomeanOver collects a metric over workloads and returns its geometric
// mean.
func geomeanOver(names []string, metric func(name string) float64) float64 {
	vals := make([]float64, 0, len(names))
	for _, n := range names {
		vals = append(vals, metric(n))
	}
	return stats.Geomean(vals)
}

// sortedKeys returns map keys in sorted order (deterministic table output).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
