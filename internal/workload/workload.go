// Package workload provides the synthetic workload generators that stand in
// for the paper's Pin/Simics traces of PARSEC 3.0 and CloudSuite (§V). The
// real traces are not available, so each workload is described by a small set
// of aggregate parameters — working-set sizes, shared fraction, read mix,
// locality skew, inter-thread communication intensity — whose values are
// chosen so that the simulated machine reproduces the *shape* of the paper's
// per-workload results (remote-access fraction, DRAM-cache fit, sensitivity
// to coherence design).
//
// Generated traces are deterministic for a given (spec, options) pair: every
// thread derives its own seeded random stream, so generation is reproducible
// and independent of thread iteration order.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"c3d/internal/addr"
	"c3d/internal/numa"
	"c3d/internal/trace"
)

// Class labels the suite a workload comes from; the evaluation discusses
// PARSEC (parallel) and CloudSuite (server) workloads separately because
// their communication behaviour differs.
type Class int

const (
	// Parallel marks PARSEC-style workloads with substantial inter-thread
	// communication.
	Parallel Class = iota
	// Server marks CloudSuite-style workloads with little inter-thread
	// communication.
	Server
	// Graph marks the graph-analytics workload (tunkrank).
	Graph
	// SingleThreaded marks the SPEC-style single-threaded workload (mcf)
	// used in §VI-C.
	SingleThreaded
)

func (c Class) String() string {
	switch c {
	case Parallel:
		return "parsec"
	case Server:
		return "server"
	case Graph:
		return "graph"
	case SingleThreaded:
		return "single-threaded"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec describes a synthetic workload at paper scale (1 GB DRAM caches,
// 16 MB LLCs). Byte sizes are divided by Options.Scale at generation time.
type Spec struct {
	// Name is the workload name as used in the paper's figures.
	Name string
	// Class is the suite the workload models.
	Class Class

	// SharedBytes is the size of the data shared by all threads.
	SharedBytes uint64
	// PrivateBytesPerThread is the size of each thread's private data.
	PrivateBytesPerThread uint64
	// MailboxBytesPerThread is the size of each thread's producer/consumer
	// communication region. Writes to the local mailbox and reads of a
	// neighbour's mailbox model inter-thread communication; making the
	// region larger than the LLC means communicated data is dirty in the
	// producer's DRAM cache under write-back designs, which is exactly the
	// pathology §III describes.
	MailboxBytesPerThread uint64

	// SharedFraction is the probability that a non-communication access
	// targets the shared region (the rest go to the thread's private data).
	SharedFraction float64
	// CommFraction is the probability that an access is a producer/consumer
	// mailbox access.
	CommFraction float64
	// ReadFraction is the probability that a data access is a load.
	ReadFraction float64
	// LocalitySkew shapes temporal locality within a region: an access
	// targets block floor(N * u^LocalitySkew) for u uniform in [0,1). Skew 1
	// is uniform; larger values concentrate accesses near the start of the
	// region, so a cache of size C captures roughly (C/N)^(1/skew) of
	// accesses.
	LocalitySkew float64
	// SpatialRun is the mean number of consecutive blocks touched after a
	// random region access before the next random jump (geometrically
	// distributed). Real programs sweep arrays and structures, which is what
	// makes page-grain structures — NUMA placement, the §IV-D classifier and
	// the region-based miss predictor — effective. 0 or 1 disables runs.
	SpatialRun int
	// MeanGap is the mean number of non-memory instructions between memory
	// accesses (1-IPC core model).
	MeanGap int

	// AccessesPerThread is the default length of each thread's parallel
	// stream before scaling.
	AccessesPerThread int
	// InitFraction is the size of the serial initialisation section relative
	// to one thread's parallel stream. The init section touches pages so
	// that the FT1 policy exhibits its serial-touch pathology.
	InitFraction float64

	// DefaultThreads is the thread count the paper used (32 for everything
	// except mcf).
	DefaultThreads int
	// PreferredPolicy is the best-performing placement policy from the
	// paper-style profiling run; experiments use it unless told otherwise.
	PreferredPolicy numa.Policy
	// Seed is the base seed for deterministic generation.
	Seed int64

	// GapDist selects the inter-access gap distribution: "" keeps the
	// generator's legacy uniform draw on [0, 2*MeanGap] (bit-identical to
	// pre-spec traces), or one of GapConstant/GapPoisson/GapGamma/GapWeibull
	// sampled by inverse transform on the same per-thread RNG, with mean
	// MeanGap and shape GapShape.
	GapDist string
	// GapShape is the shape parameter for GapGamma (integer-rounded shape k)
	// and GapWeibull (Weibull k; k < 1 gives bursty, heavy-tailed gaps).
	GapShape float64
	// SharingDist skews which shared blocks are touched: "" keeps the
	// power-law locality model driven by LocalitySkew; SharingZipf /
	// SharingPareto replace it for shared-region accesses with a heavy-tailed
	// rank distribution of parameter SharingTheta. Private regions always use
	// LocalitySkew.
	SharingDist string
	// SharingTheta is the zipf exponent / pareto alpha for SharingDist.
	SharingTheta float64

	// Source, when non-nil, overrides the synthetic generator entirely: the
	// compiled workload-spec composites (phased, multi-tenant, trace-backed
	// workloads from internal/wspec) provide their stream through it.
	// NewSource calls it with the defaulted options; the scalar fields above
	// still describe the workload for scheduling (DefaultThreads,
	// AccessesPerThread, PreferredPolicy, ...).
	Source func(s Spec, o Options) (trace.Source, error)
	// Fingerprint identifies a compiled spec document (a content hash) so
	// caches can distinguish two different documents that chose the same
	// Name. Empty for built-ins.
	Fingerprint string
}

// Validate checks that the spec's probabilities and sizes are usable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has no name")
	}
	if s.Source != nil {
		// Composite specs delegate stream generation to the factory; only
		// the scheduling fields the rest of the stack reads are checked here.
		switch {
		case s.AccessesPerThread <= 0:
			return fmt.Errorf("workload %s: AccessesPerThread must be positive", s.Name)
		case s.DefaultThreads <= 0:
			return fmt.Errorf("workload %s: DefaultThreads must be positive", s.Name)
		}
		return nil
	}
	switch {
	case s.SharedFraction < 0 || s.SharedFraction > 1:
		return fmt.Errorf("workload %s: SharedFraction %f out of [0,1]", s.Name, s.SharedFraction)
	case s.CommFraction < 0 || s.CommFraction > 1:
		return fmt.Errorf("workload %s: CommFraction %f out of [0,1]", s.Name, s.CommFraction)
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("workload %s: ReadFraction %f out of [0,1]", s.Name, s.ReadFraction)
	case s.CommFraction+s.SharedFraction > 1:
		return fmt.Errorf("workload %s: CommFraction+SharedFraction %f exceeds 1 (the private region would be silently starved)",
			s.Name, s.CommFraction+s.SharedFraction)
	case s.LocalitySkew < 1:
		return fmt.Errorf("workload %s: LocalitySkew %f must be >= 1", s.Name, s.LocalitySkew)
	case s.SpatialRun < 0:
		return fmt.Errorf("workload %s: SpatialRun %d must be non-negative", s.Name, s.SpatialRun)
	case s.MeanGap < 0:
		return fmt.Errorf("workload %s: MeanGap %d must be non-negative (a negative mean panics the gap draw)", s.Name, s.MeanGap)
	case s.SharedBytes == 0 && s.PrivateBytesPerThread == 0:
		return fmt.Errorf("workload %s: no data regions", s.Name)
	case s.AccessesPerThread <= 0:
		return fmt.Errorf("workload %s: AccessesPerThread must be positive", s.Name)
	case s.DefaultThreads <= 0:
		return fmt.Errorf("workload %s: DefaultThreads must be positive", s.Name)
	}
	if err := validateGapDist(s.Name, s.GapDist, float64(s.MeanGap), s.GapShape); err != nil {
		return err
	}
	return validateSharingDist(s.Name, s.SharingDist, s.SharingTheta)
}

// Options control trace generation.
type Options struct {
	// Threads overrides the spec's default thread count when positive.
	Threads int
	// Scale divides every byte size in the spec; 1 reproduces paper-scale
	// footprints (slow), DefaultScale keeps the full suite laptop-sized
	// while preserving the capacity ratios that determine hit rates.
	Scale int
	// AccessesPerThread overrides the spec's default when positive.
	AccessesPerThread int
	// SeedOffset perturbs the spec seed (used to generate independent
	// traces of the same workload).
	SeedOffset int64
}

// DefaultScale is the default capacity divisor: 1 GB DRAM caches become
// 16 MB, 16 MB LLCs become 256 KB, and workload footprints shrink by the same
// factor, preserving every capacity ratio the results depend on.
const DefaultScale = 64

// withDefaults fills in zero fields.
func (o Options) withDefaults(s Spec) Options {
	if o.Threads <= 0 {
		o.Threads = s.DefaultThreads
	}
	if s.Class == SingleThreaded {
		o.Threads = 1
	}
	if o.Scale <= 0 {
		o.Scale = DefaultScale
	}
	if o.AccessesPerThread <= 0 {
		o.AccessesPerThread = s.AccessesPerThread
	}
	return o
}

// Layout describes where the generator placed each region in the physical
// address space. It is exported so tests and experiments can reason about
// which pages belong to which region.
type Layout struct {
	SharedBase   addr.Addr
	SharedBytes  uint64
	MailboxBase  addr.Addr
	MailboxBytes uint64 // per thread
	PrivateBase  addr.Addr
	PrivateBytes uint64 // per thread
	Threads      int
}

// TotalBytes returns the footprint implied by the layout.
func (l Layout) TotalBytes() uint64 {
	return l.SharedBytes + uint64(l.Threads)*(l.MailboxBytes+l.PrivateBytes)
}

// PrivateRegion returns the base address and size of a thread's private
// region.
func (l Layout) PrivateRegion(thread int) (addr.Addr, uint64) {
	return l.PrivateBase + addr.Addr(uint64(thread)*l.PrivateBytes), l.PrivateBytes
}

// MailboxRegion returns the base address and size of a thread's mailbox.
func (l Layout) MailboxRegion(thread int) (addr.Addr, uint64) {
	return l.MailboxBase + addr.Addr(uint64(thread)*l.MailboxBytes), l.MailboxBytes
}

func scaleBytes(b uint64, scale int) uint64 {
	s := b / uint64(scale)
	if b > 0 && s < addr.PageBytes {
		// Never scale a region below one page: the region exists for a
		// behavioural reason and must remain addressable.
		s = addr.PageBytes
	}
	// Round to whole pages so placement policies see page-aligned regions.
	return s &^ (addr.PageBytes - 1)
}

// BuildLayout computes the address-space layout for a spec under the given
// options.
func BuildLayout(s Spec, o Options) Layout {
	o = o.withDefaults(s)
	l := Layout{Threads: o.Threads}
	l.SharedBytes = scaleBytes(s.SharedBytes, o.Scale)
	l.MailboxBytes = scaleBytes(s.MailboxBytesPerThread, o.Scale)
	l.PrivateBytes = scaleBytes(s.PrivateBytesPerThread, o.Scale)
	l.SharedBase = 0
	l.MailboxBase = addr.Addr(l.SharedBytes)
	l.PrivateBase = l.MailboxBase + addr.Addr(uint64(o.Threads)*l.MailboxBytes)
	return l
}

// NewSource returns a streaming source for the spec under the given options:
// the same deterministic per-thread record streams Generate produces, emitted
// on demand by per-section iterators instead of being built into slices.
// Resident memory is O(1) in the stream length, so AccessesPerThread can be
// paper-scale (billions) without materialising anything. Every reader opened
// from the source replays its section from the start with a freshly seeded
// RNG, which is what makes the streams independent of consumption order and
// bit-identical to the materialised path.
func NewSource(s Spec, o Options) (trace.Source, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults(s)
	if s.Source != nil {
		return s.Source(s, o)
	}
	return &genSource{s: s, o: o, layout: BuildLayout(s, o)}, nil
}

// Generate produces a deterministic trace for the spec under the given
// options. It is the materialised adapter over NewSource; the two paths are
// bit-identical by construction.
func Generate(s Spec, o Options) (*trace.Trace, error) {
	src, err := NewSource(s, o)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

// MustGenerate is Generate for specs known to be valid (the built-in
// workloads); it panics on error.
//
//c3dlint:allow unused(trace builder the tests of several packages use as a fixture)
func MustGenerate(s Spec, o Options) *trace.Trace {
	tr, err := Generate(s, o)
	if err != nil {
		panic(err)
	}
	return tr
}

// genSource is the streaming generator behind NewSource. It is immutable:
// all per-stream state lives in the readers it opens.
type genSource struct {
	s      Spec
	o      Options // defaults already applied
	layout Layout
}

func (g *genSource) Name() string        { return g.s.Name }
func (g *genSource) Threads() int        { return g.o.Threads }
func (g *genSource) ThreadLen(t int) int { return g.o.AccessesPerThread }

// PageSpan bounds every record's page: the layout starts at address 0 and
// every region is page-aligned, so the layout's pages are [0, span).
func (g *genSource) PageSpan() uint64 { return g.layout.TotalBytes() / addr.PageBytes }

// InitLen returns the init-section length: InitFraction of one thread's
// stream, or zero when the layout has no pages to stride.
func (g *genSource) InitLen() int {
	n := int(float64(g.o.AccessesPerThread) * g.s.InitFraction)
	if n <= 0 || g.layout.TotalBytes() == 0 {
		return 0
	}
	return n
}

// OpenInit returns a reader over the serial initialisation section: thread 0
// strides through the entire footprint — shared region, mailboxes and every
// thread's private region — page by page (wrapping if the section is longer
// than the footprint), writing one block per page the way a sequential loader
// or input parser would. Only page placement (FT1) and cache warm-up observe
// this section.
func (g *genSource) OpenInit() trace.RecordReader {
	r := &initReader{n: g.InitLen(), meanGap: g.s.MeanGap}
	if r.n == 0 {
		return r
	}
	r.rng = rand.New(rand.NewSource(g.s.Seed ^ g.o.SeedOffset ^ 0x1717))
	r.pages = g.layout.TotalBytes() / addr.PageBytes
	return r
}

// initReader emits the init section one record at a time.
type initReader struct {
	rng     *rand.Rand
	pages   uint64
	meanGap int
	n, i    int
}

func (r *initReader) Next() (trace.Record, bool) {
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

func (r *initReader) Err() error { return nil }

// OpenThread returns a reader over one thread's parallel-region access
// stream.
func (g *genSource) OpenThread(thread int) trace.RecordReader {
	r := &threadReader{g: g, rng: rand.New(rand.NewSource(g.s.Seed ^ g.o.SeedOffset ^ (int64(thread)+1)*0x9E3779B9))}
	r.privBase, r.privSize = g.layout.PrivateRegion(thread)
	r.ownBox, r.boxSize = g.layout.MailboxRegion(thread)
	neighbour := (thread + 1) % g.layout.Threads
	r.neighbourBox, _ = g.layout.MailboxRegion(neighbour)
	r.boxBlocks = r.boxSize / addr.BlockBytes
	return r
}

// threadReader emits one thread's parallel stream one record at a time. Its
// fields are the loop state of the original batch generator.
type threadReader struct {
	g   *genSource
	rng *rand.Rand
	i   int

	privBase     addr.Addr
	privSize     uint64
	ownBox       addr.Addr
	boxSize      uint64
	neighbourBox addr.Addr

	// produceCursor walks this thread's mailbox cyclically. Consumption reads
	// a random, already-produced position of the neighbour's mailbox: by
	// symmetry the neighbour has produced roughly as many blocks as this
	// thread, and picking an older position means the data has usually been
	// pushed out of the producer's LLC already — the situation that exposes
	// the dirty-remote-cache pathology of §III in the write-back designs.
	produceCursor uint64
	boxBlocks     uint64

	// Spatial-run state: when a run is active, successive region accesses
	// touch consecutive blocks instead of jumping.
	runLeft  int
	runNext  addr.Addr
	runLimit addr.Addr
}

func (t *threadReader) Next() (trace.Record, bool) {
	if t.i >= t.g.o.AccessesPerThread {
		return trace.Record{}, false
	}
	s, layout, rng, i := &t.g.s, &t.g.layout, t.rng, t.i
	gap := gapDraw(rng, s)
	r := rng.Float64()
	var rec trace.Record
	switch {
	case layout.Threads > 1 && t.boxSize > 0 && r < s.CommFraction:
		// Producer/consumer communication: alternate between writing the
		// local mailbox and reading the neighbour's.
		if i%2 == 0 {
			rec = trace.Record{
				Kind: trace.Write,
				Addr: t.ownBox + addr.Addr(t.produceCursor%t.boxSize),
			}
			t.produceCursor += addr.BlockBytes
		} else {
			produced := uint64(float64(i) * s.CommFraction / 2)
			if produced == 0 {
				produced = 1
			}
			if produced > t.boxBlocks {
				produced = t.boxBlocks
			}
			slot := uint64(rng.Int63n(int64(produced)))
			rec = trace.Record{
				Kind: trace.Read,
				Addr: t.neighbourBox + addr.Addr(slot*addr.BlockBytes),
			}
		}
	case t.runLeft > 0 && t.runNext < t.runLimit:
		// Continue the current spatial run.
		kind := trace.Write
		if rng.Float64() < s.ReadFraction {
			kind = trace.Read
		}
		rec = trace.Record{Kind: kind, Addr: t.runNext}
		t.runNext += addr.BlockBytes
		t.runLeft--
	case layout.SharedBytes > 0 && r < s.CommFraction+s.SharedFraction:
		rec = regionAccess(rng, *s, layout.SharedBase, layout.SharedBytes, true)
		t.runLeft, t.runNext, t.runLimit = startRun(rng, *s, rec.Addr, layout.SharedBase, layout.SharedBytes)
	case t.privSize > 0:
		rec = regionAccess(rng, *s, t.privBase, t.privSize, false)
		t.runLeft, t.runNext, t.runLimit = startRun(rng, *s, rec.Addr, t.privBase, t.privSize)
	default:
		rec = regionAccess(rng, *s, layout.SharedBase, layout.SharedBytes, true)
		t.runLeft, t.runNext, t.runLimit = startRun(rng, *s, rec.Addr, layout.SharedBase, layout.SharedBytes)
	}
	rec.Gap = gap
	t.i++
	return rec, true
}

func (t *threadReader) Err() error { return nil }

// startRun decides whether the access at a begins a spatial run and, if so,
// returns the number of follow-on blocks and the address bounds of the run.
func startRun(rng *rand.Rand, s Spec, a, base addr.Addr, size uint64) (left int, next, limit addr.Addr) {
	if s.SpatialRun <= 1 {
		return 0, 0, 0
	}
	// Geometric run length with the configured mean.
	p := 1.0 / float64(s.SpatialRun)
	left = 0
	for rng.Float64() >= p && left < 4*s.SpatialRun {
		left++
	}
	return left, a + addr.BlockBytes, base + addr.Addr(size)
}

// regionAccess picks a block inside [base, base+size) with the spec's
// locality skew and read/write mix. Shared-region accesses may instead use
// the heavy-tailed SharingDist rank model; both consume exactly one uniform
// draw, so enabling a sharing distribution never shifts the rest of the
// stream.
func regionAccess(rng *rand.Rand, s Spec, base addr.Addr, size uint64, shared bool) trace.Record {
	blocks := size / addr.BlockBytes
	if blocks == 0 {
		blocks = 1
	}
	u := rng.Float64()
	var blockIdx uint64
	if shared && s.SharingDist != "" {
		blockIdx = heavyRank(u, s.SharingDist, s.SharingTheta, blocks)
	} else {
		blockIdx = uint64(math.Pow(u, s.LocalitySkew) * float64(blocks))
	}
	if blockIdx >= blocks {
		blockIdx = blocks - 1
	}
	kind := trace.Write
	if rng.Float64() < s.ReadFraction {
		kind = trace.Read
	}
	return trace.Record{Kind: kind, Addr: base + addr.Addr(blockIdx*addr.BlockBytes)}
}
