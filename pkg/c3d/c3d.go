// Package c3d is the public SDK of the C3D reproduction: one composable,
// cancellable API in front of every capability of the simulator — single
// simulations, the paper's experiment campaigns, protocol verification and
// the streaming trace codec.
//
// The entry point is a Session built from Params, the same flat
// configuration the CLI flags parse into and the c3dd job API accepts:
//
//	sess, err := c3d.Params{Sockets: 4, Design: "c3d", Quick: true}.Session()
//	if err != nil { ... }
//	res, err := sess.Simulate(ctx, "streamcluster")
//
// Every long-running method takes a context.Context and stops promptly when
// it is cancelled — simulations abort between accesses, sweeps stop claiming
// jobs, model-checking searches abandon their frontier — and every failure is
// reported as an error (the SDK never panics on invalid configuration).
// Progress is delivered through the structured Event type via
// Session.WithProgress.
//
// cmd/c3dsim, cmd/c3dexp, cmd/c3dcheck, cmd/c3dtrace and the cmd/c3dd job
// daemon are all thin clients of this package, so embedding the SDK gives
// exactly the CLI/service code path: results are bit-identical across all of
// them at any parallelism.
package c3d

import (
	"c3d/internal/experiments"
	"c3d/internal/interconnect"
	"c3d/internal/machine"
	"c3d/internal/mc"
	"c3d/internal/numa"
	"c3d/internal/sample"
	"c3d/internal/stats"
	"c3d/internal/trace"
	"c3d/internal/workload"
	"c3d/internal/wspec"
)

// Aliases re-export the stable result and parameter types so SDK users never
// import internal packages.
type (
	// Design selects the coherence design to evaluate.
	Design = machine.Design
	// Policy selects the NUMA page placement policy.
	Policy = numa.Policy
	// Topology selects the inter-socket fabric topology.
	Topology = interconnect.Topology
	// MachineConfig is the full simulated-machine configuration (Table II).
	MachineConfig = machine.Config
	// RunResult is the detailed result of one simulation.
	RunResult = machine.RunResult
	// Report is one model-checking report.
	Report = mc.Report
	// Table is a rendered result table (text, CSV and JSON forms).
	Table = stats.Table
	// Event is a structured progress notification (see Session.WithProgress).
	Event = experiments.Event
	// EventKind classifies an Event.
	EventKind = experiments.EventKind
	// TraceSource is a streaming view of a workload trace.
	TraceSource = trace.Source
	// TraceRecord is one memory access of a trace.
	TraceRecord = trace.Record
	// TraceStats summarises a trace stream.
	TraceStats = trace.Stats
	// VerifyResult collects the reports of one Verify call.
	VerifyResult = experiments.VerifyResult
	// SamplingSpec is a SMARTS-style sampling schedule (see ParseSampling).
	SamplingSpec = sample.Spec
	// SamplingResult is the sampling section of a sampled RunResult: window
	// counts and per-metric 95% confidence half-widths.
	SamplingResult = machine.SamplingResult
	// SamplingEstimate is one sampled metric: point estimate plus half-width.
	SamplingEstimate = sample.Estimate
)

// The evaluated coherence designs (§V-A).
const (
	Baseline   = machine.Baseline
	Snoopy     = machine.Snoopy
	FullDir    = machine.FullDir
	C3D        = machine.C3D
	C3DFullDir = machine.C3DFullDir
	SharedDRAM = machine.SharedDRAM
)

// The NUMA placement policies (§V, "Memory Allocation Policy").
const (
	Interleave  = numa.Interleave
	FirstTouch1 = numa.FirstTouch1
	FirstTouch2 = numa.FirstTouch2
)

// The built-in fabric topologies. The paper's two machine shapes are
// point-to-point (2 sockets) and ring (4); mesh and fully-connected
// generalize the fabric to 2-16 sockets.
const (
	PointToPoint   = interconnect.PointToPoint
	Ring           = interconnect.Ring
	Mesh           = interconnect.Mesh
	FullyConnected = interconnect.FullyConnected
)

// Progress event kinds.
const (
	EventSimulationDone   = experiments.EventSimulationDone
	EventSimulationFailed = experiments.EventSimulationFailed
	EventStatesExplored   = experiments.EventStatesExplored
)

// ParseDesign converts a design name (baseline, snoopy, full-dir, c3d,
// c3d-full-dir, shared) into a Design.
func ParseDesign(s string) (Design, error) { return machine.ParseDesign(s) }

// ParsePolicy converts a policy name (INT, FT1, FT2) into a Policy.
func ParsePolicy(s string) (Policy, error) { return numa.ParsePolicy(s) }

// ParseTopology converts a topology name (p2p, ring, mesh, full) into a
// Topology. Only names in the topology table parse.
func ParseTopology(s string) (Topology, error) { return interconnect.ParseTopology(s) }

// Designs returns every design in evaluation order.
func Designs() []Design { return machine.Designs() }

// Topologies returns every fabric topology in table order.
func Topologies() []Topology { return interconnect.Topologies() }

// Session is the facade in front of the simulator: a validated Params that
// every method applies to its run. Sessions are immutable, cheap to create
// and safe for concurrent use — the c3dd daemon builds one per job.
type Session struct {
	p         Params          // validated by Params.Session
	spec      *wspec.Compiled // p.Spec compiled, or nil
	workloads []workload.Spec // p.Workloads resolved, or the spec alone
	sampling  sample.Spec     // p.Sampling parsed
	progress  func(Event)
}

// WithProgress returns a copy of the session that delivers structured
// progress events to fn. Callbacks are serialised; Event.String reproduces
// the classic CLI progress lines.
func (s *Session) WithProgress(fn func(Event)) *Session {
	c := *s
	c.progress = fn
	return &c
}
