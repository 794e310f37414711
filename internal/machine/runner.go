package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"c3d/internal/addr"
	"c3d/internal/cpu"
	"c3d/internal/sample"
	"c3d/internal/sim"
	"c3d/internal/trace"
)

// RunOptions control trace execution.
type RunOptions struct {
	// WarmupFraction is the fraction of each thread's parallel-region
	// accesses executed before statistics are reset and timing restarts
	// (mirroring the paper's warm-up of DRAM caches before measurement).
	// It is sized per thread, so skewed ingested traces never see a short
	// thread consumed entirely by another thread's warm-up budget.
	WarmupFraction float64
	// Sampling, when enabled, replaces the full detailed run (and the
	// fractional warm-up) with the SMARTS-style sampled schedule: seeded
	// fast-forward stretches with functional warming only, interleaved with
	// detailed warm-up and measured windows. The result then carries a
	// Sampling section with per-metric confidence half-widths.
	Sampling sample.Spec
}

// DefaultRunOptions uses a 25% warm-up, enough to populate the scaled caches
// without dominating run time.
func DefaultRunOptions() RunOptions { return RunOptions{WarmupFraction: 0.25} }

// RunSource executes a streaming trace's parallel region on the machine and
// returns the measured-region results. The init section is used only for page
// placement (FT1) — it is not executed for timing, matching the paper's
// methodology of fast-forwarding to the parallel region.
//
// Each thread's stream is read through a prefetching trace.Batches: a
// producer goroutine per thread fills batches of trace.PrefetchBatch records
// ahead of the timing model, so generating or decoding the streams runs on
// another core while this goroutine executes them. Every stream is still
// produced by one goroutine in order, so results do not depend on the
// overlap. The runner reads plainly, on its own goroutine, when overlap
// cannot pay: for in-memory traces, for streams shorter than one batch and
// when GOMAXPROCS is 1. Every producer has exited when RunSource returns,
// whether it succeeds, fails or is cancelled. Resident memory is bounded by
// a few batches per thread (two recycled buffers) plus the source's
// per-reader window (one chunk for trace files) no matter how long the
// simulated access streams are — stream length dictates simulation time,
// not memory.
// The page-placement pre-pass reads the source before execution does; a
// source that reports a page span (trace.PageSpanner) lets the pass stop as
// soon as every page in the span has a home, so a generated trace is mostly
// produced once rather than twice. The span also sizes the page classifier's
// dense index.
//
// Cancelling the context aborts the run between simulated accesses (checked
// every few thousand records, so aborts are prompt even at paper-scale stream
// lengths) and returns ctx's error. A machine runs one trace: once a run has
// started (a rejected source or option does not start one), RunSource
// returns an error, so every simulation builds its machine with New.
func (m *Machine) RunSource(ctx context.Context, src trace.Source, opts RunOptions) (RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	threads := src.Threads()
	if threads == 0 {
		return RunResult{}, fmt.Errorf("machine: trace %q has no threads", src.Name())
	}
	if threads > m.cfg.Cores() {
		return RunResult{}, fmt.Errorf("machine: trace %q has %d threads but the machine has %d cores",
			src.Name(), threads, m.cfg.Cores())
	}
	if opts.WarmupFraction < 0 || opts.WarmupFraction >= 1 {
		return RunResult{}, fmt.Errorf("machine: warm-up fraction %f outside [0,1)", opts.WarmupFraction)
	}
	if err := opts.Sampling.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("machine: %w", err)
	}

	if m.ran {
		return RunResult{}, fmt.Errorf("machine: already ran a trace; build a new machine with New")
	}
	m.ran = true

	span := trace.PageSpan(src)
	m.classifier.SetSpan(span)
	if err := m.placePages(ctx, src, span); err != nil {
		return RunResult{}, err
	}

	// The producers live on a context of their own, cancelled and joined on
	// every return path.
	ctx, cancel := context.WithCancel(ctx)
	var producers sync.WaitGroup
	defer func() {
		cancel()
		producers.Wait()
	}()
	prefetch := runtime.GOMAXPROCS(0) > 1

	// Gather the cores that execute threads (thread t runs on core t).
	cores := make([]*coreRunner, threads)
	for t := 0; t < threads; t++ {
		sock := m.socketOf(t)
		var in *trace.Batches
		if rr := src.OpenThread(t); prefetch && src.ThreadLen(t) >= trace.PrefetchBatch {
			in = trace.Prefetch(ctx, &producers, rr)
		} else {
			in = trace.Batched(rr)
		}
		cores[t] = &coreRunner{
			core: sock.cores[t-sock.id*m.cfg.CoresPerSocket],
			in:   in,
			idx:  t,
		}
	}

	if opts.Sampling.Enabled() {
		return m.runSampled(ctx, src, cores, opts.Sampling)
	}

	// Warm-up phase, sized per thread: each thread warms the configured
	// fraction of its own stream, so an ingested trace with skewed lengths
	// keeps a measured region on its short threads.
	warmed := false
	for _, cr := range cores {
		cr.limit = int(opts.WarmupFraction * float64(src.ThreadLen(cr.idx)))
		if cr.limit > 0 {
			warmed = true
		}
	}
	if warmed {
		if err := m.execute(ctx, cores); err != nil {
			return RunResult{}, err
		}
		for _, cr := range cores {
			cr.core.Drain()
			cr.core.ResetTiming()
		}
		m.resetStats()
	}

	// Measured phase.
	for _, cr := range cores {
		cr.limit = -1
	}
	if err := m.execute(ctx, cores); err != nil {
		return RunResult{}, err
	}
	var cycles sim.Time
	var instr uint64
	for _, cr := range cores {
		cycles = max(cycles, cr.core.Drain())
		instr += cr.core.Stats().Instructions
	}
	res := m.result(src.Name(), cores, uint64(cycles), instr, m.tally(), 1)
	return res, m.CheckInvariants()
}

// cancelCheckMask throttles context checks in the simulation hot loops: one
// atomic-load-sized check every 4096 simulated accesses keeps the overhead
// unmeasurable while bounding the cancellation latency to microseconds.
const cancelCheckMask = 1<<12 - 1

// coreRunner tracks one core's progress through its access stream. It holds
// the current batch of its stream, so the scheduling heap can ask "does this
// core have work" without consuming anything, and executing a record is a
// slice index.
type coreRunner struct {
	core *cpu.Core
	in   *trace.Batches

	// batch[next] is the next record to execute.
	batch []trace.Record
	next  int
	// consumed counts records executed across phases (the warm-up limit is a
	// total, so the measured phase continues where warm-up stopped).
	consumed int
	// limit is this phase's bound on consumed (-1 = until the stream ends).
	limit int
	// rdErr is the error that ended the stream, ready to return.
	rdErr error

	// idx is the runner's position in the cores slice; it is the
	// deterministic tie-break when several cores share the same local time.
	idx int
}

// fill ensures a record is buffered; it reports whether the runner has a
// record to execute. A false return with a non-nil rdErr is a reader failure
// or, from a prefetching reader, the run's cancellation, which is reported
// as it is, the way the scheduling loops' own context checks report it.
func (cr *coreRunner) fill() bool {
	if cr.next < len(cr.batch) {
		return true
	}
	cr.batch, cr.next = cr.in.Next(), 0
	if cr.batch != nil {
		return true
	}
	switch err := cr.in.Err(); {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		cr.rdErr = err
	default:
		cr.rdErr = fmt.Errorf("machine: core %d stream: %w", cr.idx, err)
	}
	return false
}

// take consumes the buffered record; fill must have reported one.
func (cr *coreRunner) take() trace.Record {
	rec := cr.batch[cr.next]
	cr.next++
	cr.consumed++
	return rec
}

// placePages performs the placement pre-pass: init-section touches first
// (relevant to FT1), then the parallel sections interleaved round-robin so
// that concurrent first touches spread across sockets the way they would in
// a live run.
//
// A non-zero span promises that every record addresses a page below it. The
// pass counts the pages it places itself, and once that count reaches the
// span every page a later record can touch has a home: each further Touch
// would be a pure map read, so the pass returns with placements and
// statistics identical to a full pass. Without a span it reads everything.
func (m *Machine) placePages(ctx context.Context, src trace.Source, span uint64) error {
	// Once a page is placed, every further Touch is a pure map read; a small
	// direct-mapped memo of pages confirmed placed short-circuits it (a
	// collision just repeats the harmless lookup). Init-section touches under
	// FirstTouch2 do not place and are never memoised.
	var placedMemo [4096]uint64
	placed := func(p addr.Page) bool {
		return placedMemo[uint64(p)&4095] == uint64(p)+1
	}
	// complete reports that this pass has placed span pages of its own.
	start := m.pageTable.Pages()
	complete := func() bool {
		return span > 0 && uint64(m.pageTable.Pages()-start) >= span
	}
	rr := src.OpenInit()
	steps := 0
	for {
		rec, ok := rr.Next()
		if !ok {
			break
		}
		if p := addr.PageOf(rec.Addr); !placed(p) {
			if _, ok := m.pageTable.Touch(p, 0, false); ok {
				placedMemo[uint64(p)&4095] = uint64(p) + 1
				if complete() {
					return nil
				}
			}
		}
		if steps++; steps&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	if err := rr.Err(); err != nil {
		return fmt.Errorf("machine: placement pre-pass (init): %w", err)
	}
	readers := make([]trace.RecordReader, src.Threads())
	for t := range readers {
		readers[t] = src.OpenThread(t)
	}
	active := len(readers)
	for active > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		for t, r := range readers {
			if r == nil {
				continue
			}
			rec, ok := r.Next()
			if !ok {
				if err := r.Err(); err != nil {
					return fmt.Errorf("machine: placement pre-pass (thread %d): %w", t, err)
				}
				readers[t] = nil
				active--
				continue
			}
			if p := addr.PageOf(rec.Addr); !placed(p) {
				socket := t / m.cfg.CoresPerSocket
				if _, ok := m.pageTable.Touch(p, socket, true); ok {
					placedMemo[uint64(p)&4095] = uint64(p) + 1
					if complete() {
						return nil
					}
				}
			}
		}
	}
	return nil
}

// execute advances the cores through their records, always stepping the core
// with the smallest local time so that bandwidth contention and inter-thread
// interactions happen in a plausible global order. Each runner's limit field
// bounds its total consumed records (set by the caller before the call; -1
// runs until the stream ends), which is how warm-up phases and sampled
// windows stop each core at its own boundary.
//
// The "earliest core" selection is an indexed min-heap keyed by
// (core local time, core index) rather than a linear scan, so one simulated
// access costs O(log cores) instead of O(cores) and runs scale past 32 cores.
// The index tie-break reproduces the scan's first-wins behaviour exactly, so
// results are bit-identical to the previous implementation. Executing a
// record only advances the picked core's clock (monotonically), so after each
// step only the heap root needs fixing.
func (m *Machine) execute(ctx context.Context, cores []*coreRunner) error {
	h := runnerHeap{runners: make([]*coreRunner, 0, len(cores))}
	for _, cr := range cores {
		if cr.limit >= 0 && cr.consumed >= cr.limit {
			continue
		}
		if cr.fill() {
			h.push(cr)
		} else if cr.rdErr != nil {
			return cr.rdErr
		}
	}
	steps := 0
	for len(h.runners) > 0 {
		if steps++; steps&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pick := h.runners[0]
		pick.core.Execute(pick.take(), m)
		if (pick.limit >= 0 && pick.consumed >= pick.limit) || !pick.fill() {
			if pick.rdErr != nil {
				return pick.rdErr
			}
			h.popRoot()
		} else {
			h.fixRoot()
		}
	}
	return nil
}

// runnerHeap is a binary min-heap of core runners ordered by
// (core.Now(), core index). Core count is small relative to event counts, so
// a simple binary layout is enough; the important property is the
// deterministic tie-break.
type runnerHeap struct {
	runners []*coreRunner
}

func runnerLess(a, b *coreRunner) bool {
	an, bn := a.core.Now(), b.core.Now()
	if an != bn {
		return an < bn
	}
	return a.idx < b.idx
}

func (h *runnerHeap) push(cr *coreRunner) {
	h.runners = append(h.runners, cr)
	i := len(h.runners) - 1
	//c3dlint:allow ctxcheck(heap sift-up: at most log(cores) iterations, pure comparisons)
	for i > 0 {
		parent := (i - 1) / 2
		if !runnerLess(h.runners[i], h.runners[parent]) {
			break
		}
		h.runners[i], h.runners[parent] = h.runners[parent], h.runners[i]
		i = parent
	}
}

// fixRoot restores the heap after the root's time advanced.
func (h *runnerHeap) fixRoot() {
	rs := h.runners
	n := len(rs)
	i := 0
	//c3dlint:allow ctxcheck(heap sift-down: at most log(cores) iterations, pure comparisons)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && runnerLess(rs[l], rs[best]) {
			best = l
		}
		if r < n && runnerLess(rs[r], rs[best]) {
			best = r
		}
		if best == i {
			return
		}
		rs[i], rs[best] = rs[best], rs[i]
		i = best
	}
}

// popRoot removes the root (a core that finished its records).
func (h *runnerHeap) popRoot() {
	last := len(h.runners) - 1
	h.runners[0] = h.runners[last]
	h.runners[last] = nil
	h.runners = h.runners[:last]
	if last > 0 {
		h.fixRoot()
	}
}
