package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"c3d/internal/interconnect"
	"c3d/internal/machine"
	"c3d/internal/sample"
	"c3d/internal/stats"
)

// scalingDesigns are the designs the socket-scaling study compares: the
// no-DRAM-cache baseline and the proposed C3D design. The study's question is
// how C3D's advantage moves as the fabric grows, so the intermediate naive
// designs are left out to keep the campaign tractable.
var scalingDesigns = []machine.Design{machine.Baseline, machine.C3D}

// scalingSocketCounts returns the machine sizes the study sweeps. Quick
// configurations stop at 8 sockets; full runs include the 16-socket ceiling
// of the built-in fabrics.
func scalingSocketCounts(cfg Config) []int {
	if cfg.AccessesPerThread > 0 && cfg.AccessesPerThread < 50_000 {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16}
}

// ScalingPoint is one (sockets, topology, design) cell of the study.
type ScalingPoint struct {
	Sockets  int
	Topology string
	Design   string
	// Diameter is the topology's largest hop count at this socket count —
	// the latency side of the fabric trade-off.
	Diameter int
	// Links is the number of directed fabric links — the cost side.
	Links int
	// Speedup is the geomean speedup over the same-shape baseline (1.0 for
	// the baseline rows by construction).
	Speedup float64
	// OffSocketBytesPerAccess is the geomean inter-socket traffic per memory
	// access.
	OffSocketBytesPerAccess float64
}

// ScalingResult is the socket-scaling study: how each design's performance
// and off-socket traffic move with socket count and fabric topology. It
// extends the paper's two fixed shapes (2×16 p2p, 4×8 ring) along the §V
// design-space axis the hardware trend points at: more sockets, richer
// fabrics.
type ScalingResult struct {
	// Points holds one entry per (sockets, topology, design), in sweep
	// order: socket count ascending, topologies in table order, designs
	// in evaluation order.
	Points []ScalingPoint
}

// Table renders the study with one row per point.
func (r ScalingResult) Table() *stats.Table {
	t := stats.NewTable("sockets", "topology", "diam", "links", "design", "speedup", "off-socket B/acc")
	for _, p := range r.Points {
		t.AddRow(
			strconv.Itoa(p.Sockets),
			p.Topology,
			strconv.Itoa(p.Diameter),
			strconv.Itoa(p.Links),
			p.Design,
			fmt.Sprintf("%.3f", p.Speedup),
			fmt.Sprintf("%.1f", p.OffSocketBytesPerAccess),
		)
	}
	return t
}

// scalingShape is one machine shape of the study.
type scalingShape struct {
	sockets int
	topo    interconnect.Topology
}

// scalingJobs builds the (shape x workload x design) job grid shared by the
// full and sampled variants of the study.
func scalingJobs(cfg Config, tag string, shapes []scalingShape, names []string) []job {
	var jobs []job
	for _, sh := range shapes {
		for _, name := range names {
			spec := cfg.mustWorkload(name)
			for _, d := range scalingDesigns {
				mcfg := cfg.machineConfig(sh.sockets, d, spec.PreferredPolicy)
				mcfg.Topology = sh.topo
				jobs = append(jobs, job{
					key:  key(tag, sh.sockets, sh.topo, name, d),
					spec: spec,
					mcfg: mcfg,
				})
			}
		}
	}
	return jobs
}

// scalingShapes enumerates the (sockets, topology) grid: every topology that
// can host each socket count, in table order.
func scalingShapes(cfg Config) []scalingShape {
	var shapes []scalingShape
	for _, n := range scalingSocketCounts(cfg) {
		for _, topo := range interconnect.Topologies() {
			if interconnect.SupportsSockets(topo, n) != nil {
				continue
			}
			shapes = append(shapes, scalingShape{sockets: n, topo: topo})
		}
	}
	return shapes
}

// Scaling runs the socket-scaling study. The thread count is held at the
// configuration's (the paper's 32 by default), so the sweep answers "what
// does the same workload cost on a bigger machine": cores per socket shrink
// as sockets grow, page placement spreads across more homes, and every
// remote access crosses the selected fabric. Results are deterministic at
// any Config.Parallelism.
func Scaling(ctx context.Context, cfg Config) (ScalingResult, error) {
	shapes := scalingShapes(cfg)
	names := cfg.workloadNames()
	results, err := cfg.runJobs(ctx, scalingJobs(cfg, "scaling", shapes, names))
	if err != nil {
		return ScalingResult{}, err
	}

	out := ScalingResult{}
	for _, sh := range shapes {
		fabric := interconnect.New(interconnect.Config{Sockets: sh.sockets, Topology: sh.topo})
		for _, d := range scalingDesigns {
			speedup := geomeanOver(names, func(name string) float64 {
				base := results[key("scaling", sh.sockets, sh.topo, name, machine.Baseline)]
				return results[key("scaling", sh.sockets, sh.topo, name, d)].SpeedupOver(base)
			})
			traffic := geomeanOver(names, func(name string) float64 {
				r := results[key("scaling", sh.sockets, sh.topo, name, d)]
				accesses := r.Counters.Loads + r.Counters.Stores
				if accesses == 0 {
					return 0
				}
				return float64(r.InterSocketBytes) / float64(accesses)
			})
			out.Points = append(out.Points, ScalingPoint{
				Sockets:                 sh.sockets,
				Topology:                sh.topo.String(),
				Design:                  d.String(),
				Diameter:                fabric.Diameter(),
				Links:                   fabric.LinkCount(),
				Speedup:                 speedup,
				OffSocketBytesPerAccess: traffic,
			})
		}
	}
	return out, nil
}

// --- sampled scaling variant ---

// DefaultSamplingSpec is the schedule the sampled experiment variants use
// when the configuration does not pin one: long enough stretches for a
// several-fold speedup at quick scale, short enough units that even a
// 6000-access quick stream yields a handful of measured windows (and a
// paper-scale stream over a hundred).
const DefaultSamplingSpec = "stretch=1400,warm=60,win=60"

// defaultSamplingSpec derives the schedule for a sweep whose configuration
// does not pin one: DefaultSamplingSpec, with the stretch shortened when the
// shortest per-thread stream in the sweep could not otherwise host a useful
// number of measured windows (smoke tests run streams of a few hundred
// accesses; paper scale runs hundreds of thousands). Purely a function of the
// configuration, so the derived spec — recorded in the result — is as
// deterministic as a pinned one.
func (c Config) defaultSamplingSpec() string {
	def, err := sample.Parse(DefaultSamplingSpec)
	if err != nil {
		panic(err) // the constant is well-formed by construction
	}
	shortest := int(^uint(0) >> 1)
	for _, name := range c.workloadNames() {
		n := c.AccessesPerThread
		if n <= 0 {
			n = c.mustWorkload(name).AccessesPerThread
		}
		if n < shortest {
			shortest = n
		}
	}
	// In the worst case the seeded phase skips a full stretch, so w windows
	// need w*(stretch+warm+win) records per thread; size the stretch for
	// eight, capped at the default (longer streams keep the default detail
	// fraction rather than growing ever-coarser).
	const targetWindows = 8
	stretch := shortest/targetWindows - def.Warm - def.Window
	if stretch > def.Stretch {
		stretch = def.Stretch
	}
	if stretch < 1 {
		stretch = 1
	}
	def.Stretch = stretch
	return def.String()
}

// SampledScalingPoint is one (sockets, topology, design) cell of the sampled
// study: the same metrics as ScalingPoint, each carried as a point estimate
// with a 95% confidence half-width, plus the number of measured windows
// behind them.
type SampledScalingPoint struct {
	Sockets  int
	Topology string
	Design   string
	// Windows is the total number of measured windows across the workloads
	// aggregated into this point.
	Windows int
	// Speedup is the geomean speedup over the same-shape baseline with its
	// propagated half-width.
	Speedup sample.Estimate
	// OffSocketBytesPerAccess is the geomean fabric traffic per access with
	// its propagated half-width.
	OffSocketBytesPerAccess sample.Estimate
}

// SampledScalingResult is the sampled variant of the socket-scaling study:
// the same sweep simulated in SMARTS-style sampled mode, every metric
// reported with explicit error bars.
type SampledScalingResult struct {
	// Spec is the canonical sampling spec the runs used.
	Spec string
	// Points holds one entry per (sockets, topology, design), in sweep order.
	Points []SampledScalingPoint
}

// Table renders the sampled study; estimate cells are "value±half" so the
// bars are part of the JSON artefact.
func (r SampledScalingResult) Table() *stats.Table {
	t := stats.NewTable("sockets", "topology", "design", "windows", "speedup", "off-socket B/acc")
	for _, p := range r.Points {
		t.AddRow(
			strconv.Itoa(p.Sockets),
			p.Topology,
			p.Design,
			strconv.Itoa(p.Windows),
			p.Speedup.Format(3),
			p.OffSocketBytesPerAccess.Format(1),
		)
	}
	return t
}

// SampledScaling runs the socket-scaling study in sampled mode. The job grid
// is identical to Scaling's; only the execution mode (and therefore the
// wall-clock cost) differs, and every reported metric carries its 95%
// half-width. Results are deterministic at any Config.Parallelism for a
// fixed (config, seed, spec).
func SampledScaling(ctx context.Context, cfg Config) (SampledScalingResult, error) {
	if cfg.Sampling == "" {
		cfg.Sampling = cfg.defaultSamplingSpec()
	}
	spec, err := sample.Parse(cfg.Sampling)
	if err != nil {
		return SampledScalingResult{}, err
	}
	shapes := scalingShapes(cfg)
	names := cfg.workloadNames()
	results, err := cfg.runJobs(ctx, scalingJobs(cfg, "scaling-sampled", shapes, names))
	if err != nil {
		return SampledScalingResult{}, err
	}

	out := SampledScalingResult{Spec: spec.String()}
	for _, sh := range shapes {
		for _, d := range scalingDesigns {
			windows := 0
			speedups := make([]sample.Estimate, 0, len(names))
			traffic := make([]sample.Estimate, 0, len(names))
			for _, name := range names {
				base := results[key("scaling-sampled", sh.sockets, sh.topo, name, machine.Baseline)]
				des := results[key("scaling-sampled", sh.sockets, sh.topo, name, d)]
				if des.Sampling == nil || base.Sampling == nil {
					return SampledScalingResult{}, fmt.Errorf("scaling-sampled: %s/%v/%s missing sampling section", name, sh.topo, d)
				}
				windows += des.Sampling.Windows
				if d == machine.Baseline {
					// A run's speedup over itself is exactly 1.
					speedups = append(speedups, sample.Estimate{Value: 1})
				} else {
					speedups = append(speedups, sample.RatioOf(base.Sampling.Estimates.CPI, des.Sampling.Estimates.CPI))
				}
				traffic = append(traffic, des.Sampling.Estimates.FabricBytesPerAccess)
			}
			out.Points = append(out.Points, SampledScalingPoint{
				Sockets:                 sh.sockets,
				Topology:                sh.topo.String(),
				Design:                  d.String(),
				Windows:                 windows,
				Speedup:                 geomeanEstimate(speedups),
				OffSocketBytesPerAccess: geomeanEstimate(traffic),
			})
		}
	}
	return out, nil
}

// geomeanEstimate combines per-workload estimates into their geometric mean
// with the propagated half-width (relative errors in quadrature over n).
func geomeanEstimate(ests []sample.Estimate) sample.Estimate {
	vals := make([]float64, 0, len(ests))
	sumSq := 0.0
	for _, e := range ests {
		vals = append(vals, e.Value)
		rel := e.RelError()
		sumSq += rel * rel
	}
	g := stats.Geomean(vals)
	if len(ests) == 0 {
		return sample.Estimate{}
	}
	return sample.Estimate{Value: g, HalfWidth: math.Abs(g) * math.Sqrt(sumSq) / float64(len(ests))}
}
