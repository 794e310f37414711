package wspec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"c3d/internal/addr"
	"c3d/internal/numa"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// Seed salts keeping every composed stream independent: each phase and each
// tenant perturbs the job SeedOffset with its own salt, and arrival
// processes draw from an RNG salted away from the leaf generators, so no two
// streams in a composition ever share a random sequence. The per-thread
// multiplier mirrors the workload generator's.
const (
	phaseSaltMul  int64 = 0x1F3D5B79
	tenantSaltMul int64 = 0x5DEECE66D
	threadSaltMul int64 = 0x9E3779B9
	arrivalSalt   int64 = 0x7F4A7C15
	initSalt      int64 = 0x1717
)

func phaseSalt(i int) int64  { return (int64(i) + 1) * phaseSaltMul }
func tenantSalt(i int) int64 { return (int64(i) + 1) * tenantSaltMul }

// Compiled is a workload-spec document compiled to a ready-to-run
// workload.Spec. Compilation is eager about errors: a Compiled's spec has
// been probed through workload.NewSource once, so a bad document never gets
// as far as a job queue.
type Compiled struct {
	doc  *Doc
	spec workload.Spec
}

// Name returns the compiled workload's name.
func (c *Compiled) Name() string { return c.doc.Name }

// Spec returns the compiled workload.Spec, ready for workload.NewSource.
func (c *Compiled) Spec() workload.Spec { return c.spec }

// Load parses, validates and compiles a single spec document. Base
// references resolve through Lookup: the built-in workloads, then the
// presets.
func Load(data []byte) (*Compiled, error) {
	d, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return Compile(d)
}

// Compile validates and compiles one document; base references resolve
// through Lookup.
func Compile(d *Doc) (*Compiled, error) {
	return compileOne(d, batch{lookup: Lookup})
}

// batch is what a compilation resolves base names against: the documents
// compiled together, then lookup.
type batch struct {
	docs   map[string]*Doc
	lookup func(string) (workload.Spec, error)
}

func compileAll(docs []*Doc, lookup func(string) (workload.Spec, error)) ([]*Compiled, error) {
	index := make(map[string]*Doc, len(docs))
	for _, d := range docs {
		if d.Name == "" {
			return nil, fmt.Errorf("wspec: spec has no name")
		}
		if _, dup := index[d.Name]; dup {
			return nil, fmt.Errorf("wspec: spec %q appears twice in the batch", d.Name)
		}
		index[d.Name] = d
	}
	out := make([]*Compiled, 0, len(docs))
	for _, d := range docs {
		c, err := compileOne(d, batch{docs: index, lookup: lookup})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func compileOne(d *Doc, b batch) (*Compiled, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var (
		spec workload.Spec
		err  error
	)
	switch {
	case d.Trace != "":
		spec, err = traceSpec(d)
	case len(d.Tenants) > 0:
		spec, err = tenantSpec(d, b)
	default:
		spec, err = simpleSpec(d, b)
	}
	if err != nil {
		return nil, err
	}
	spec.Fingerprint = fingerprint(d)
	// Probe the compiled spec through the full source pipeline once, so
	// every compile-time failure mode surfaces here rather than inside a
	// running job.
	if _, err := workload.NewSource(spec, workload.Options{}); err != nil {
		return nil, fmt.Errorf("wspec: spec %q: %w", d.Name, err)
	}
	return &Compiled{doc: d, spec: spec}, nil
}

// fingerprint hashes the canonical re-marshalling of the document; it lets
// caches distinguish two different documents that picked the same name.
func fingerprint(d *Doc) string {
	b, err := json.Marshal(d)
	if err != nil {
		// A Doc is marshal-safe by construction; this is unreachable.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// resolveBase resolves a base name to a flattened generator spec: a batch
// document (simple mode only), or a workload the batch's lookup finds.
// seen/chain detect cyclic references.
func resolveBase(name string, b batch, seen map[string]bool, chain []string) (workload.Spec, error) {
	if name == "" {
		return workload.Spec{}, fmt.Errorf("wspec: %s: empty base reference", strings.Join(chain, " -> "))
	}
	if bd, ok := b.docs[name]; ok {
		// Cycles are only possible among batch documents; a looked-up base
		// below is a leaf. Checking here (not above) lets a doc reuse a
		// catalog workload's own name — a spec named "facesim" with base
		// "facesim" shadows the built-in, it does not cycle.
		if seen[name] {
			return workload.Spec{}, fmt.Errorf("wspec: cyclic base reference: %s", strings.Join(append(chain, name), " -> "))
		}
		if bd.Trace != "" || len(bd.Tenants) > 0 || len(bd.Phases) > 0 {
			return workload.Spec{}, fmt.Errorf("wspec: base %q is a composite spec (phases/tenants/trace); only simple re-parameterising specs can serve as bases", name)
		}
		seen[name] = true
		base, err := resolveBase(bd.Base, b, seen, append(chain, name))
		delete(seen, name)
		if err != nil {
			return workload.Spec{}, err
		}
		s := applySimple(base, bd)
		if err := s.Validate(); err != nil {
			return workload.Spec{}, fmt.Errorf("wspec: base %q: %w", name, err)
		}
		return s, nil
	}
	s, err := b.lookup(name)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("wspec: %w", err)
	}
	if s.Source != nil {
		return workload.Spec{}, fmt.Errorf("wspec: base %q is a compiled composite workload; reference a generator workload instead", name)
	}
	return s, nil
}

// applySimple layers a document's scalar knobs — identity, seed, sizes,
// overrides, arrival, sharing — onto a flattened base spec.
func applySimple(base workload.Spec, d *Doc) workload.Spec {
	s := base
	s.Name = d.Name
	s.Source = nil
	s.Fingerprint = ""
	if d.Seed != 0 {
		s.Seed = d.Seed
	}
	if d.Threads > 0 {
		s.DefaultThreads = d.Threads
		if s.Class == workload.SingleThreaded {
			// An explicit thread count overrides the base's single-threaded
			// pin (the generator would otherwise force one thread).
			s.Class = workload.Parallel
		}
	}
	if d.Accesses > 0 {
		s.AccessesPerThread = d.Accesses
	}
	s = applyOverrides(s, d.Overrides)
	if d.Arrival != nil {
		s.GapDist = d.Arrival.Process
		s.MeanGap = int(d.Arrival.Mean + 0.5)
		s.GapShape = d.Arrival.Shape
	}
	if d.Sharing != nil {
		s.SharingDist = d.Sharing.Dist
		s.SharingTheta = d.Sharing.Theta
	}
	return s
}

func applyOverrides(s workload.Spec, o *Overrides) workload.Spec {
	if o == nil {
		return s
	}
	if o.SharedFraction != nil {
		s.SharedFraction = *o.SharedFraction
	}
	if o.CommFraction != nil {
		s.CommFraction = *o.CommFraction
	}
	if o.ReadFraction != nil {
		s.ReadFraction = *o.ReadFraction
	}
	if o.LocalitySkew != nil {
		s.LocalitySkew = *o.LocalitySkew
	}
	if o.SpatialRun != nil {
		s.SpatialRun = *o.SpatialRun
	}
	if o.MeanGap != nil {
		s.MeanGap = *o.MeanGap
	}
	return s
}

// simpleSpec compiles base + overrides (+ phases) into a spec. Without
// phases the result is a plain generator spec — which is what makes a spec
// that mirrors a built-in workload produce byte-identical traces, and lets
// simple specs serve as bases for other specs.
func simpleSpec(d *Doc, b batch) (workload.Spec, error) {
	seen := map[string]bool{d.Name: true}
	base, err := resolveBase(d.Base, b, seen, []string{d.Name})
	if err != nil {
		return workload.Spec{}, err
	}
	spec := applySimple(base, d)
	if err := spec.Validate(); err != nil {
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: %w", d.Name, err)
	}
	if len(d.Phases) > 0 {
		// Each phase re-weights the flattened spec; a variant that does not
		// validate fails the compile, not a later source build.
		variants := make([]workload.Spec, len(d.Phases))
		for i, p := range d.Phases {
			v := applyOverrides(spec, &p.Overrides)
			if err := v.Validate(); err != nil {
				return workload.Spec{}, fmt.Errorf("wspec: spec %q: phase %d (%s): %w", d.Name, i, p.Name, err)
			}
			variants[i] = v
		}
		flat := spec // the phased factory captures the flattened spec, not itself
		spec.Source = phasedFactory(flat, variants, append([]Phase(nil), d.Phases...))
	}
	return spec, nil
}

// phasedFactory builds the Source hook for a phased spec: per-thread
// streams that play each phase's re-weighted variant of the base for its
// share of the access stream. Overrides cannot change region sizes, so all
// variants share the base layout and the address space is phase-stable.
func phasedFactory(base workload.Spec, variants []workload.Spec, phases []Phase) func(workload.Spec, workload.Options) (trace.Source, error) {
	return func(s workload.Spec, o workload.Options) (trace.Source, error) {
		inner, err := workload.NewSource(base, o)
		if err != nil {
			return nil, err
		}
		return &phasedSource{
			name:     s.Name,
			inner:    inner,
			variants: variants,
			counts:   phaseCounts(phases, o.AccessesPerThread),
			o:        o,
		}, nil
	}
}

// phaseCounts partitions n accesses over the phases proportionally to their
// fractions (floor division, remainder to the last phase), so the total is
// exactly n at any n.
func phaseCounts(phases []Phase, n int) []int {
	sum := 0.0
	for _, p := range phases {
		sum += p.Fraction
	}
	counts := make([]int, len(phases))
	used := 0
	for i := 0; i < len(phases)-1; i++ {
		c := int(float64(n) * phases[i].Fraction / sum)
		counts[i] = c
		used += c
	}
	counts[len(phases)-1] = n - used
	return counts
}

// phasedSource delegates shape and init to the base source and plays the
// thread streams phase by phase. Each phase opens its variant's generator
// with a phase-salted seed offset, so phases are independent streams and
// replay identically however often a section is reopened.
type phasedSource struct {
	name     string
	inner    trace.Source
	variants []workload.Spec
	counts   []int
	o        workload.Options
}

func (p *phasedSource) Name() string                 { return p.name }
func (p *phasedSource) Threads() int                 { return p.inner.Threads() }
func (p *phasedSource) InitLen() int                 { return p.inner.InitLen() }
func (p *phasedSource) ThreadLen(t int) int          { return p.o.AccessesPerThread }
func (p *phasedSource) OpenInit() trace.RecordReader { return p.inner.OpenInit() }

// PageSpan is the base's: every phase variant shares the base layout.
func (p *phasedSource) PageSpan() uint64 { return trace.PageSpan(p.inner) }

func (p *phasedSource) OpenThread(thread int) trace.RecordReader {
	return &phasedReader{p: p, thread: thread}
}

type phasedReader struct {
	p      *phasedSource
	thread int
	phase  int // next phase to open
	cur    trace.RecordReader
	left   int
	err    error
}

func (r *phasedReader) Next() (trace.Record, bool) {
	for {
		if r.err != nil {
			return trace.Record{}, false
		}
		if r.cur != nil && r.left > 0 {
			rec, ok := r.cur.Next()
			if !ok {
				r.err = r.cur.Err()
				if r.err == nil {
					r.err = fmt.Errorf("wspec: %s: phase %d underran its stream", r.p.name, r.phase-1)
				}
				return trace.Record{}, false
			}
			r.left--
			return rec, true
		}
		if r.phase >= len(r.p.variants) {
			return trace.Record{}, false
		}
		i := r.phase
		r.phase++
		if r.p.counts[i] == 0 {
			continue
		}
		o := r.p.o
		o.SeedOffset ^= phaseSalt(i)
		src, err := workload.NewSource(r.p.variants[i], o)
		if err != nil {
			r.err = err
			return trace.Record{}, false
		}
		r.cur = src.OpenThread(r.thread)
		r.left = r.p.counts[i]
	}
}

func (r *phasedReader) Err() error { return r.err }

// mixTenant is one compiled tenant of a multi-tenant mix.
type mixTenant struct {
	spec    workload.Spec // effective generator spec, Source nil
	weight  float64
	arrival Arrival
}

// tenantSpec compiles a multi-tenant document: each tenant resolves and
// re-weights its own base, and the mix interleaves the per-tenant streams
// by seeded arrival processes at generation time.
func tenantSpec(d *Doc, b batch) (workload.Spec, error) {
	tenants := make([]mixTenant, 0, len(d.Tenants))
	for _, t := range d.Tenants {
		seen := map[string]bool{d.Name: true}
		base, err := resolveBase(t.Base, b, seen, []string{d.Name})
		if err != nil {
			return workload.Spec{}, fmt.Errorf("wspec: spec %q: tenant %q: %w", d.Name, t.Name, err)
		}
		eff := applyOverrides(base, d.Overrides)
		eff = applyOverrides(eff, t.Overrides)
		eff.Name = d.Name + "/" + t.Name
		// Tenants follow the mix's thread count even when the base is the
		// single-threaded workload.
		if eff.Class == workload.SingleThreaded {
			eff.Class = workload.Parallel
		}
		if d.Sharing != nil {
			eff.SharingDist = d.Sharing.Dist
			eff.SharingTheta = d.Sharing.Theta
		}
		if err := eff.Validate(); err != nil {
			return workload.Spec{}, fmt.Errorf("wspec: spec %q: tenant %q: %w", d.Name, t.Name, err)
		}
		arr := Arrival{Process: workload.GapConstant, Mean: float64(eff.MeanGap)}
		if t.Arrival != nil {
			arr = *t.Arrival
		} else if d.Arrival != nil {
			arr = *d.Arrival
		}
		tenants = append(tenants, mixTenant{spec: eff, weight: t.weight(), arrival: arr})
	}

	first := tenants[0].spec
	spec := workload.Spec{
		Name:              d.Name,
		Class:             first.Class,
		ReadFraction:      first.ReadFraction,
		MeanGap:           first.MeanGap,
		AccessesPerThread: first.AccessesPerThread,
		InitFraction:      first.InitFraction,
		DefaultThreads:    first.DefaultThreads,
		PreferredPolicy:   first.PreferredPolicy,
		Seed:              first.Seed,
	}
	for _, t := range tenants {
		spec.SharedBytes += t.spec.SharedBytes // footprint bookkeeping only
	}
	if d.Seed != 0 {
		spec.Seed = d.Seed
	}
	if d.Threads > 0 {
		spec.DefaultThreads = d.Threads
	}
	if d.Accesses > 0 {
		spec.AccessesPerThread = d.Accesses
	}
	spec.Source = mixFactory(tenants)
	return spec, nil
}

// mixFactory builds the Source hook for a multi-tenant mix. Each tenant's
// regions are relocated to a disjoint, page-aligned slice of the address
// space; the interleave order is decided by per-tenant virtual arrival
// clocks advanced with inverse-transform-sampled intervals, all derived
// from the job seed, so the merged stream is a pure function of
// (spec, options).
func mixFactory(tenants []mixTenant) func(workload.Spec, workload.Options) (trace.Source, error) {
	return func(s workload.Spec, o workload.Options) (trace.Source, error) {
		m := &mixSource{
			name:         s.Name,
			o:            o,
			seed:         s.Seed,
			tenants:      tenants,
			initFraction: s.InitFraction,
			meanGap:      s.MeanGap,
			offsets:      make([]addr.Addr, len(tenants)),
		}
		var total uint64
		for i, t := range tenants {
			m.offsets[i] = addr.Addr(total)
			total += workload.BuildLayout(t.spec, o).TotalBytes()
		}
		m.totalBytes = total
		return m, nil
	}
}

type mixSource struct {
	name         string
	o            workload.Options
	seed         int64
	tenants      []mixTenant
	offsets      []addr.Addr
	totalBytes   uint64
	initFraction float64
	meanGap      int
}

func (m *mixSource) Name() string        { return m.name }
func (m *mixSource) Threads() int        { return m.o.Threads }
func (m *mixSource) ThreadLen(t int) int { return m.o.AccessesPerThread }

// PageSpan covers every tenant's relocated slice of the address space.
func (m *mixSource) PageSpan() uint64 { return m.totalBytes / addr.PageBytes }

func (m *mixSource) InitLen() int {
	n := int(float64(m.o.AccessesPerThread) * m.initFraction)
	if n <= 0 || m.totalBytes < addr.PageBytes {
		return 0
	}
	return n
}

// OpenInit strides the combined footprint page by page the way the
// generator's init section does, so FT1 placement sees the same
// serial-touch behaviour over the mix's whole address space.
func (m *mixSource) OpenInit() trace.RecordReader {
	r := &strideInitReader{n: m.InitLen(), meanGap: m.meanGap}
	if r.n == 0 {
		return r
	}
	r.rng = rand.New(rand.NewSource(m.seed ^ m.o.SeedOffset ^ initSalt))
	r.pages = m.totalBytes / addr.PageBytes
	return r
}

// strideInitReader mirrors the generator's init section over an arbitrary
// footprint: one write per page, striding and wrapping.
type strideInitReader struct {
	rng     *rand.Rand
	pages   uint64
	meanGap int
	n, i    int
}

func (r *strideInitReader) Next() (trace.Record, bool) {
	if r.i >= r.n {
		return trace.Record{}, false
	}
	page := uint64(r.i) % r.pages
	offset := uint64(r.rng.Intn(addr.BlocksPerPage)) * addr.BlockBytes
	rec := trace.Record{
		Kind: trace.Write,
		Addr: addr.Addr(page*addr.PageBytes + offset),
		Gap:  uint32(r.rng.Intn(2*r.meanGap + 1)),
	}
	r.i++
	return rec, true
}

func (r *strideInitReader) Err() error { return nil }

func (m *mixSource) OpenThread(thread int) trace.RecordReader {
	r := &mixReader{n: m.o.AccessesPerThread}
	for k := range m.tenants {
		t := &m.tenants[k]
		o := m.o
		o.SeedOffset ^= tenantSalt(k)
		src, err := workload.NewSource(t.spec, o)
		if err != nil {
			return &errReader{err: fmt.Errorf("wspec: %s: tenant %d: %w", m.name, k, err)}
		}
		// The arrival clock's RNG is salted away from the leaf generator's
		// so pacing and content never share a random stream.
		arng := rand.New(rand.NewSource(m.seed ^ m.o.SeedOffset ^ tenantSalt(k) ^ (int64(thread)+1)*threadSaltMul ^ arrivalSalt))
		st := &tenantStream{
			leaf:  src.OpenThread(thread),
			rng:   arng,
			off:   m.offsets[k],
			proc:  t.arrival.Process,
			mean:  t.arrival.Mean,
			shape: t.arrival.Shape,
		}
		if t.weight > 0 {
			st.mean /= t.weight
			st.gap = workload.SampleInterval(st.rng, st.proc, st.mean, st.shape)
			st.next = st.gap
		} else {
			// Zero-weight tenants never arrive; they exist so a mix can be
			// re-weighted without renaming tenants.
			st.next = math.Inf(1)
		}
		r.streams = append(r.streams, st)
	}
	return r
}

// tenantStream is one tenant's stream inside a mixReader: its leaf reader,
// its arrival clock, and the address offset relocating it.
type tenantStream struct {
	leaf  trace.RecordReader
	rng   *rand.Rand
	off   addr.Addr
	proc  string
	mean  float64
	shape float64
	gap   float64 // interval that preceded the pending record
	next  float64 // virtual arrival time of the pending record
	done  bool
}

// mixReader merges the tenant streams: each Next picks the stream with the
// earliest virtual arrival time (ties to the lowest tenant index — a total,
// deterministic order), emits its record relocated into the tenant's
// address slice with the sampled interval as the record gap, then advances
// that tenant's clock.
type mixReader struct {
	streams []*tenantStream
	n, i    int
	err     error
}

func (r *mixReader) Next() (trace.Record, bool) {
	for {
		if r.err != nil || r.i >= r.n {
			return trace.Record{}, false
		}
		best := -1
		for k, st := range r.streams {
			if st.done || math.IsInf(st.next, 1) {
				continue
			}
			if best < 0 || st.next < r.streams[best].next {
				best = k
			}
		}
		if best < 0 {
			return trace.Record{}, false
		}
		st := r.streams[best]
		rec, ok := st.leaf.Next()
		if !ok {
			if err := st.leaf.Err(); err != nil {
				r.err = err
				return trace.Record{}, false
			}
			st.done = true
			continue
		}
		rec.Addr += st.off
		rec.Gap = workload.ClampGap(st.gap)
		r.i++
		g := workload.SampleInterval(st.rng, st.proc, st.mean, st.shape)
		st.gap = g
		st.next += 1 + g
		return rec, true
	}
}

func (r *mixReader) Err() error { return r.err }

type errReader struct{ err error }

func (r *errReader) Next() (trace.Record, bool) { return trace.Record{}, false }
func (r *errReader) Err() error                 { return r.err }

// traceSpec compiles an external-trace reference: the file is opened and
// indexed once, held for the life of the compiled spec, and replayed as-is
// through trace.OpenSource (which streams v2 files and decodes v1 files
// whole).
func traceSpec(d *Doc) (workload.Spec, error) {
	f, err := os.Open(d.Trace)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: %w", d.Name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: %w", d.Name, err)
	}
	src, err := trace.OpenSource(f, st.Size())
	if err != nil {
		f.Close()
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: %s: %w", d.Name, d.Trace, err)
	}
	threads := src.Threads()
	accesses := 0
	for t := 0; t < threads; t++ {
		if l := src.ThreadLen(t); l > accesses {
			accesses = l
		}
	}
	if accesses == 0 {
		accesses = 1
	}
	defaultThreads := threads
	if defaultThreads == 0 {
		defaultThreads = 1
	}
	return workload.Spec{
		Name:              d.Name,
		Class:             workload.Parallel,
		AccessesPerThread: accesses,
		DefaultThreads:    defaultThreads,
		PreferredPolicy:   numa.Interleave,
		Source: func(workload.Spec, workload.Options) (trace.Source, error) {
			return src, nil
		},
	}, nil
}
