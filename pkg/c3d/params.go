package c3d

import (
	"fmt"

	"c3d/internal/experiments"
	"c3d/internal/interconnect"
	"c3d/internal/machine"
	"c3d/internal/sample"
	"c3d/internal/workload"
	"c3d/internal/wspec"
	"c3d/pkg/c3d/api"
)

// Params is the one session configuration: the shape CLI flags parse into,
// the c3dd job API accepts as JSON, and SDK programs fill in directly.
// Params.Session validates it once, which is what makes the CLIs, the daemon
// and embedded use provably one code path.
//
// The struct itself — fields and JSON tags — is defined once, in
// pkg/c3d/api (the wire-contract package), and Params is a defined type
// over it: convert with api.Params(p) / Params(w) when crossing between
// SDK calls and wire documents. The two can never drift because they are
// one declaration.
//
// Zero fields mean "use the default": design C3D, 4 sockets and the socket
// count's default topology, the workload's native thread count, access
// count and preferred placement policy, scale workload.DefaultScale, a 0.25
// warm-up, GOMAXPROCS-way parallelism and full detailed simulation.
// Experiment campaigns start from the paper-scale or (Quick) reduced
// configuration instead and fix their own designs.
type Params api.Params

// defaultSockets is the machine shape a session assumes when Sockets is
// zero — the paper's 4-socket configuration.
const defaultSockets = 4

// Session validates the params and returns the session they configure: an
// impossible configuration is reported here, not as a panic mid-run.
// Negative numeric fields are rejected rather than dropped, because running
// a default the caller never asked for would be worse than failing.
func (p Params) Session() (*Session, error) {
	if err := checkNonNegative("",
		namedInt{"sockets", p.Sockets},
		namedInt{"threads", p.Threads},
		namedInt{"accesses", p.Accesses},
		namedInt{"scale", p.Scale},
		namedInt{"parallel", p.Parallelism}); err != nil {
		return nil, err
	}
	if p.Design != "" {
		if _, err := ParseDesign(p.Design); err != nil {
			return nil, err
		}
	}
	if p.Policy != "" {
		if _, err := ParsePolicy(p.Policy); err != nil {
			return nil, err
		}
	}
	if p.Topology != "" {
		if _, err := ParseTopology(p.Topology); err != nil {
			return nil, err
		}
	}
	sampling, err := ParseSampling(p.Sampling)
	if err != nil {
		return nil, err
	}
	// The session owns its copy: later edits to the caller's warm-up
	// pointer must not reach a validated session.
	if p.Warmup != nil {
		w := *p.Warmup
		p.Warmup = &w
	}
	s := &Session{p: p, sampling: sampling}
	if len(p.Spec) > 0 {
		if s.spec, err = wspec.Load(p.Spec); err != nil {
			return nil, fmt.Errorf("c3d: %w", err)
		}
	}
	if p.Warmup != nil && (*p.Warmup < 0 || *p.Warmup >= 1) {
		return nil, fmt.Errorf("c3d: warm-up fraction %v outside [0,1)", *p.Warmup)
	}
	for _, name := range p.Workloads {
		w, err := s.resolveWorkload(name)
		if err != nil {
			return nil, err
		}
		s.workloads = append(s.workloads, w)
	}
	if s.spec != nil && len(s.workloads) == 0 {
		// With no explicit subset a compiled spec document *is* the suite,
		// which is how scaling and fig experiments run a spec in place of
		// the catalog workloads.
		s.workloads = []workload.Spec{s.spec.Spec()}
	}
	// Eagerly reject shapes no machine could host, using the session's
	// socket default. Experiments that fix their own socket counts (Fig. 7's
	// 2-socket machine, the scaling sweep) re-validate per machine before
	// construction, so a session-level pass here is necessary, not
	// sufficient.
	if p.Topology != "" {
		err = interconnect.SupportsSockets(Topology(p.Topology), s.sockets())
	} else {
		_, err = interconnect.DefaultTopology(s.sockets())
	}
	if err != nil {
		return nil, fmt.Errorf("c3d: %w", err)
	}
	return s, nil
}

// namedInt is a numeric field under its wire name.
type namedInt struct {
	name string
	v    int
}

// checkNonNegative rejects the first negative field. Fields are checked in
// declaration order, so a spec with several negative fields always reports
// the same one first.
func checkNonNegative(what string, fields ...namedInt) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("c3d: negative %s%s %d", what, f.name, f.v)
		}
	}
	return nil
}

// ParseSampling parses a sampling schedule spec of the form
// "stretch=N,warm=N,win=N[,seed=S]" (all lengths per-thread record counts;
// see internal/sample for the schedule semantics). The empty string parses
// to the zero spec, meaning full detailed simulation.
func ParseSampling(text string) (SamplingSpec, error) {
	spec, err := sample.Parse(text)
	if err != nil {
		return SamplingSpec{}, fmt.Errorf("c3d: %w", err)
	}
	return spec, nil
}

// sockets resolves the socket count the session's own machines use. Shared
// by validation and machineConfigFor so the two can never disagree.
func (s *Session) sockets() int {
	if s.p.Sockets > 0 {
		return s.p.Sockets
	}
	return defaultSockets
}

// resolveWorkload resolves a workload name against the session: the
// compiled workload-spec document when one is set and the name is empty or
// the spec's own, else the workload catalog (built-ins, then presets).
func (s *Session) resolveWorkload(name string) (workload.Spec, error) {
	if s.spec != nil && (name == "" || name == s.spec.Name()) {
		return s.spec.Spec(), nil
	}
	if name == "" {
		return workload.Spec{}, fmt.Errorf("c3d: no workload named and no workload spec set")
	}
	w, err := wspec.Lookup(name)
	if err != nil {
		if s.spec != nil {
			return workload.Spec{}, fmt.Errorf("c3d: %w; the session spec defines %q", err, s.spec.Name())
		}
		return workload.Spec{}, fmt.Errorf("c3d: %w", err)
	}
	return w, nil
}

// machineConfigFor resolves the machine configuration a simulation of spec
// runs on — the single source of truth shared by Simulate and
// MachineConfigFor.
func (s *Session) machineConfigFor(spec workload.Spec) machine.Config {
	design := C3D
	if s.p.Design != "" {
		design = Design(s.p.Design)
	}
	mcfg := machine.DefaultConfig(s.sockets(), design)
	mcfg.Topology = Topology(s.p.Topology)
	mcfg.Scale = s.p.Scale
	if mcfg.Scale <= 0 {
		mcfg.Scale = workload.DefaultScale
	}
	mcfg.MemPolicy = spec.PreferredPolicy
	if s.p.Policy != "" {
		mcfg.MemPolicy, _ = ParsePolicy(s.p.Policy) // validated by Session
	}
	mcfg.EnableBroadcastFilter = s.p.BroadcastFilter
	return mcfg
}

// experimentsConfig hands the session's resolved values to an experiment
// campaign.
func (s *Session) experimentsConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	if s.p.Quick {
		cfg = experiments.QuickConfig()
	}
	if s.p.Sockets > 0 {
		cfg.Sockets = s.p.Sockets
	}
	if s.p.Threads > 0 {
		cfg.Threads = s.p.Threads
	}
	if s.p.Accesses > 0 {
		cfg.AccessesPerThread = s.p.Accesses
	}
	if s.p.Scale > 0 {
		cfg.Scale = s.p.Scale
	}
	if s.p.Warmup != nil {
		cfg.WarmupFraction = *s.p.Warmup
	}
	cfg.Workloads = s.workloads
	cfg.Topology = Topology(s.p.Topology)
	cfg.Parallelism = s.p.Parallelism
	cfg.Seed = s.p.Seed
	cfg.Sampling = s.sampling
	cfg.Progress = s.progress
	return cfg
}
