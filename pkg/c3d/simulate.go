package c3d

import (
	"context"
	"fmt"

	"c3d/internal/machine"
	"c3d/internal/workload"
)

// SimulateResult is the outcome of one Simulate call: the full machine-level
// result plus how the request was resolved.
type SimulateResult struct {
	RunResult
	// RequestedThreads is the thread count asked for (the workload's native
	// count when none was set) and EffectiveThreads the count that actually
	// ran: a request exceeding the machine's cores is clamped, and
	// ThreadsClamped set, so callers can surface the difference instead of
	// silently reporting on a smaller run.
	RequestedThreads int
	EffectiveThreads int
	ThreadsClamped   bool
}

// Simulate runs one workload on one machine configuration under the
// session's design and returns the detailed statistics. The access streams
// are generated as the simulation consumes them, so memory stays bounded at
// any stream length.
//
// Cancelling the context aborts the simulation between accesses and returns
// ctx's error.
func (s *Session) Simulate(ctx context.Context, workloadName string) (*SimulateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := s.resolveWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	mcfg := s.machineConfigFor(spec)
	requested := spec.DefaultThreads
	if s.p.Threads > 0 {
		requested = s.p.Threads
	}
	threads := min(requested, mcfg.Cores())

	if err := mcfg.Validate(); err != nil {
		return nil, fmt.Errorf("c3d: invalid machine configuration: %w", err)
	}
	m := machine.New(mcfg)
	src, err := newSource(spec, workload.Options{
		Threads:           threads,
		Scale:             mcfg.Scale,
		AccessesPerThread: s.p.Accesses,
		SeedOffset:        s.p.Seed,
	})
	if err != nil {
		return nil, err
	}
	runOpts := machine.DefaultRunOptions()
	if s.p.Warmup != nil {
		runOpts.WarmupFraction = *s.p.Warmup
	}
	runOpts.Sampling = s.sampling
	res, err := m.RunSource(ctx, src, runOpts)
	if err != nil {
		return nil, err
	}
	return &SimulateResult{
		RunResult:        res,
		RequestedThreads: requested,
		EffectiveThreads: threads,
		ThreadsClamped:   threads < requested,
	}, nil
}

// newSource builds the trace a simulation runs. It is a variable so tests
// can wrap the source and observe what the runner reads.
var newSource = workload.NewSource

// MachineConfigFor resolves the machine configuration Simulate would use for
// a workload under this session — useful for inspecting capacities before a
// run.
func (s *Session) MachineConfigFor(workloadName string) (MachineConfig, error) {
	spec, err := s.resolveWorkload(workloadName)
	if err != nil {
		return MachineConfig{}, err
	}
	mcfg := s.machineConfigFor(spec)
	if err := mcfg.Validate(); err != nil {
		return MachineConfig{}, fmt.Errorf("c3d: %w", err)
	}
	return mcfg, nil
}
