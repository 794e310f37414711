package wspec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"c3d/internal/workload"
)

// Version is the only workload-spec document version this package reads.
const Version = 1

// Doc is a parsed workload-spec document. See the package documentation for
// the format reference. Exactly one of Base, Tenants or Trace selects the
// document's mode:
//
//   - Base (no phases/tenants): a simple re-parameterisation of the base
//     workload — overrides, arrival process, sharing skew. Compiles to a
//     plain generator spec, so it can in turn serve as a base.
//   - Base + Phases: sequential segments that re-weight the base's mix over
//     the access stream.
//   - Tenants: a weighted mix of per-tenant streams interleaved by seeded
//     arrival processes.
//   - Trace: an external binary trace file (v2 or v1) replayed as-is.
type Doc struct {
	// Version must be 1.
	Version int `json:"version"`
	// Name names the compiled workload; it must be unique in its batch.
	Name string `json:"name"`
	// Base names the underlying workload: a catalog workload or a simple
	// spec compiled in the same batch.
	Base string `json:"base,omitempty"`
	// Trace replays an external binary trace file (path, v2 or v1) instead of
	// generating a stream. No other knobs may be combined with it.
	Trace string `json:"trace,omitempty"`

	// Seed overrides the base seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// Threads overrides the default thread count when positive.
	Threads int `json:"threads,omitempty"`
	// Accesses overrides accesses per thread when positive.
	Accesses int `json:"accesses_per_thread,omitempty"`

	// Overrides re-weights the base workload's mix.
	Overrides *Overrides `json:"overrides,omitempty"`
	// Arrival replaces the base's inter-access gap model.
	Arrival *Arrival `json:"arrival,omitempty"`
	// Sharing replaces the shared-region locality model with a heavy-tailed
	// rank distribution.
	Sharing *Dist `json:"sharing,omitempty"`

	// Phases splits the access stream into sequential segments, each
	// re-weighting the base mix. Fractions are normalised over their sum.
	Phases []Phase `json:"phases,omitempty"`
	// Tenants interleaves independently generated per-tenant streams.
	Tenants []Tenant `json:"tenants,omitempty"`
}

// Overrides adjusts a base workload's mix parameters. Pointer fields
// distinguish "not set" from an explicit zero. Region sizes are deliberately
// not overridable: every phase and tenant variant keeps its base's layout,
// which is what makes phase composition address-stable.
type Overrides struct {
	SharedFraction *float64 `json:"shared_fraction,omitempty"`
	CommFraction   *float64 `json:"comm_fraction,omitempty"`
	ReadFraction   *float64 `json:"read_fraction,omitempty"`
	LocalitySkew   *float64 `json:"locality_skew,omitempty"`
	SpatialRun     *int     `json:"spatial_run,omitempty"`
	MeanGap        *int     `json:"mean_gap,omitempty"`
}

// Arrival selects an inter-access gap distribution: constant, poisson,
// gamma or weibull intervals of the given mean (and shape for gamma/
// weibull), sampled by inverse transform on the job RNG.
type Arrival struct {
	Process string  `json:"process"`
	Mean    float64 `json:"mean"`
	Shape   float64 `json:"shape,omitempty"`
}

// Dist selects a heavy-tailed sharing-skew distribution: zipf or pareto
// with exponent theta.
type Dist struct {
	Dist  string  `json:"dist"`
	Theta float64 `json:"theta"`
}

// Phase is one sequential segment of a phased spec. Fraction is its share
// of the access stream (normalised over the sum of all phase fractions).
type Phase struct {
	Name     string  `json:"name,omitempty"`
	Fraction float64 `json:"fraction"`
	Overrides
}

// Tenant is one stream of a multi-tenant mix. Weight scales its share of
// the interleaved stream (default 1); Arrival paces it (default: constant
// intervals at the tenant base's mean gap).
type Tenant struct {
	Name      string     `json:"name"`
	Base      string     `json:"base"`
	Weight    *float64   `json:"weight,omitempty"`
	Arrival   *Arrival   `json:"arrival,omitempty"`
	Overrides *Overrides `json:"overrides,omitempty"`
}

// Parse decodes a workload-spec document. Unknown fields and trailing data
// are errors: a spec travels over the wire and into caches, so silent
// tolerance would hide typos until results differ.
func Parse(data []byte) (*Doc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("wspec: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wspec: trailing data after spec document")
	}
	return &d, nil
}

// Validate checks the document's shape and parameter ranges. It does not
// resolve base references — Compile does, against the catalog and the
// compilation batch.
func (d *Doc) Validate() error {
	if d.Version != Version {
		return fmt.Errorf("wspec: unsupported spec version %d (want %d)", d.Version, Version)
	}
	if d.Name == "" {
		return fmt.Errorf("wspec: spec has no name")
	}
	modes := 0
	if d.Base != "" {
		modes++
	}
	if len(d.Tenants) > 0 {
		modes++
	}
	if d.Trace != "" {
		modes++
	}
	if modes != 1 {
		return fmt.Errorf("wspec: spec %q must set exactly one of base, tenants or trace", d.Name)
	}
	if d.Trace != "" {
		// A trace reference replays the file as-is; any other knob would be
		// silently ignored, so reject the combination outright.
		if d.Seed != 0 || d.Threads != 0 || d.Accesses != 0 || d.Overrides != nil ||
			d.Arrival != nil || d.Sharing != nil || len(d.Phases) > 0 {
			return fmt.Errorf("wspec: spec %q: a trace reference replays the file as-is and takes no other knobs", d.Name)
		}
		return nil
	}
	if d.Threads < 0 {
		return fmt.Errorf("wspec: spec %q: threads %d must be non-negative", d.Name, d.Threads)
	}
	if d.Threads > 0 && d.Threads > maxThreads {
		return fmt.Errorf("wspec: spec %q: threads %d exceed %d", d.Name, d.Threads, maxThreads)
	}
	if d.Accesses < 0 {
		return fmt.Errorf("wspec: spec %q: accesses_per_thread %d must be non-negative", d.Name, d.Accesses)
	}
	if err := d.Overrides.validate(d.Name, "overrides"); err != nil {
		return err
	}
	if err := d.Arrival.validate(d.Name, "arrival"); err != nil {
		return err
	}
	if err := d.Sharing.validate(d.Name); err != nil {
		return err
	}
	sum := 0.0
	for i, p := range d.Phases {
		if p.Fraction <= 0 {
			return fmt.Errorf("wspec: spec %q: phase %d (%s): fraction %g must be positive", d.Name, i, p.Name, p.Fraction)
		}
		sum += p.Fraction
		if err := p.Overrides.validate(d.Name, fmt.Sprintf("phase %d (%s)", i, p.Name)); err != nil {
			return err
		}
	}
	if len(d.Phases) > 0 && !(sum > 0) {
		return fmt.Errorf("wspec: spec %q: phase fractions sum to 0", d.Name)
	}
	if len(d.Tenants) > 0 {
		if len(d.Phases) > 0 {
			return fmt.Errorf("wspec: spec %q: phases and tenants cannot be combined (phase the tenant bases instead)", d.Name)
		}
		seen := map[string]bool{}
		wsum := 0.0
		for i, t := range d.Tenants {
			if t.Name == "" {
				return fmt.Errorf("wspec: spec %q: tenant %d has no name", d.Name, i)
			}
			if seen[t.Name] {
				return fmt.Errorf("wspec: spec %q: tenant %q appears twice", d.Name, t.Name)
			}
			seen[t.Name] = true
			if t.Base == "" {
				return fmt.Errorf("wspec: spec %q: tenant %q has no base", d.Name, t.Name)
			}
			w := t.weight()
			if w < 0 {
				return fmt.Errorf("wspec: spec %q: tenant %q: weight %g must be non-negative", d.Name, t.Name, w)
			}
			wsum += w
			if err := t.Arrival.validate(d.Name, "tenant "+t.Name); err != nil {
				return err
			}
			if err := t.Overrides.validate(d.Name, "tenant "+t.Name); err != nil {
				return err
			}
		}
		if !(wsum > 0) {
			return fmt.Errorf("wspec: spec %q: tenant weights sum to 0", d.Name)
		}
	}
	return nil
}

// maxThreads mirrors trace.MaxThreads without importing it into the wire
// validation path.
const maxThreads = 1 << 16

func (t Tenant) weight() float64 {
	if t.Weight == nil {
		return 1
	}
	return *t.Weight
}

func (o *Overrides) validate(spec, where string) error {
	if o == nil {
		return nil
	}
	frac := func(field string, v *float64) error {
		if v != nil && (*v < 0 || *v > 1) {
			return fmt.Errorf("wspec: spec %q: %s: %s %g out of [0,1]", spec, where, field, *v)
		}
		return nil
	}
	if err := frac("shared_fraction", o.SharedFraction); err != nil {
		return err
	}
	if err := frac("comm_fraction", o.CommFraction); err != nil {
		return err
	}
	if err := frac("read_fraction", o.ReadFraction); err != nil {
		return err
	}
	if o.LocalitySkew != nil && *o.LocalitySkew < 1 {
		return fmt.Errorf("wspec: spec %q: %s: locality_skew %g must be >= 1", spec, where, *o.LocalitySkew)
	}
	if o.SpatialRun != nil && *o.SpatialRun < 0 {
		return fmt.Errorf("wspec: spec %q: %s: spatial_run %d must be non-negative", spec, where, *o.SpatialRun)
	}
	if o.MeanGap != nil && *o.MeanGap < 0 {
		return fmt.Errorf("wspec: spec %q: %s: mean_gap %d must be non-negative", spec, where, *o.MeanGap)
	}
	return nil
}

func (a *Arrival) validate(spec, where string) error {
	if a == nil {
		return nil
	}
	if a.Process == "" {
		return fmt.Errorf("wspec: spec %q: %s: arrival has no process (want constant, poisson, gamma or weibull)", spec, where)
	}
	if a.Mean < 0 {
		return fmt.Errorf("wspec: spec %q: %s: arrival mean %g must be non-negative", spec, where, a.Mean)
	}
	// Reuse the workload-level range rules so a doc rejected here is exactly
	// a doc the generator would reject after compilation.
	if err := validateArrivalDist(spec+"/"+where, a); err != nil {
		return err
	}
	return nil
}

func validateArrivalDist(name string, a *Arrival) error {
	probe := workload.Spec{
		Name: name, LocalitySkew: 1, SharedBytes: 1,
		AccessesPerThread: 1, DefaultThreads: 1,
		MeanGap: int(a.Mean + 0.5), GapDist: a.Process, GapShape: a.Shape,
	}
	return probe.Validate()
}

func (s *Dist) validate(spec string) error {
	if s == nil {
		return nil
	}
	probe := workload.Spec{
		Name: spec, LocalitySkew: 1, SharedBytes: 1,
		AccessesPerThread: 1, DefaultThreads: 1,
		SharingDist: s.Dist, SharingTheta: s.Theta,
	}
	return probe.Validate()
}
