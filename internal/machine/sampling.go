package machine

import (
	"context"
	"fmt"
	"math"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/dramcache"
	"c3d/internal/sample"
	"c3d/internal/sim"
	"c3d/internal/trace"
)

// SamplingResult describes how a sampled run arrived at its numbers: the
// schedule it used, how much of the stream was simulated in detail, and the
// confidence half-widths of every derived metric. It is attached to RunResult
// so error bars travel with the numbers into every JSON output.
type SamplingResult struct {
	// Spec is the canonical sampling spec the run used.
	Spec string
	// Windows is the number of measured windows the estimator saw.
	Windows int
	// SampledAccesses is the number of memory accesses inside measured
	// windows — the accesses the reported metrics are computed from.
	SampledAccesses uint64
	// DetailedAccesses is the number of accesses simulated in full detail
	// (warm-up phases plus measured windows).
	DetailedAccesses uint64
	// TotalAccesses is the full parallel-region access count the sampled
	// totals are extrapolated to.
	TotalAccesses uint64
	// Estimates holds the point estimate and 95% confidence half-width of
	// each derived metric.
	Estimates sample.Estimates
}

// ffCore is the per-core state of functional warming: the socket, L1 and
// private DRAM cache resolved once per run instead of per record. A private
// DRAM cache is an LLC victim cache, so warming feeds it through Warm,
// WarmWrite and WarmInvalidate. A memory-side one fills on its home port
// instead: an LLC miss warms the block clean into its home's cache, and a
// dirty LLC victim warms dirty into its home's.
type ffCore struct {
	sock *Socket
	l1   *cache.Cache
	dc   *dramcache.Cache // nil unless the design's DRAM caches are private
}

// touch is the functional-warming path used during fast-forward stretches: it
// updates the cheap architectural state a detailed phase depends on — page
// classifier, L1/LLC tags and the DRAM cache's victim contents — without
// producing any coherence or fabric events and without advancing any counter
// that reaches the measured results. Blocks are installed clean/shared and victims are dropped
// silently; the coherence engines tolerate the resulting stale directory
// knowledge (an untracked block is the designed broadcast/memory path, and a
// tracked-but-evicted block downgrades to a no-op).
func (m *Machine) touch(ff *ffCore, coreID int, rec trace.Record) {
	b := addr.BlockOf(rec.Addr)
	// Threads are pinned in this simulator, so the thread id equals the core
	// id and migrations never occur.
	m.classifier.Access(addr.PageOf(rec.Addr), coreID, coreID)
	if rec.Kind == trace.Write {
		m.touchWrite(ff, coreID, b)
		return
	}
	// Touch installs on miss, so an L1 hit is the whole fast path; an L1 miss
	// leaves b installed there and only the LLC remains. L1 victims are
	// dropped silently (the L1s are write-through into the inclusive LLC).
	if _, hit := ff.l1.Touch(b, coherence.LineShared); hit {
		return
	}
	if victim, hit := ff.sock.llc.Touch(b, coherence.LineShared); !hit {
		m.warmLLCMiss(ff, b, victim)
	}
}

// warmLLCMiss warms what an LLC miss on b leaves behind, in the detailed
// engines' order: under MemorySide the home read's clean fill of b, then the
// LLC victim's eviction. The eviction keeps the hierarchy inclusive and
// hands the victim to the DRAM cache: the private one, or under MemorySide
// the home's if the victim is dirty (a clean one is dropped, as the
// baseline engine drops it). Any memory write-back is only a statistic, and
// fast-forward produces none. Fast-forwarded evictions must land in the
// DRAM cache because a cold one is the single largest warming bias (every
// measured-window miss would pay the memory path a full run's warm
// giga-cache absorbs).
func (m *Machine) warmLLCMiss(ff *ffCore, b addr.Block, victim cache.Victim) {
	if m.spec.MemorySide {
		m.home(b).dramCache.Warm(b, coherence.LineShared, false)
	}
	if !victim.Valid {
		return
	}
	for _, l1 := range ff.sock.l1s {
		l1.Invalidate(victim.Block)
	}
	if ff.dc != nil {
		ff.dc.Warm(victim.Block, victim.State, victim.Dirty)
	} else if victim.Dirty && m.spec.MemorySide {
		m.home(victim.Block).dramCache.Warm(victim.Block, coherence.LineShared, true)
	}
}

// touchWrite is the store half of functional warming. Coherence state —
// which socket owns a line — is exactly what a broadcast design's timing
// hangs off, so fast-forwarded stores must not leave stale Shared copies
// behind: the writer's hierarchy takes the line Modified (LLC dirty, as the
// write-through L1s make the LLC dirty bit authoritative) and every other
// copy on the machine is dropped, the same end state the detailed engines
// converge to, produced without any coherence, fabric or statistic events.
func (m *Machine) touchWrite(ff *ffCore, coreID int, b addr.Block) {
	// One scan takes the line Modified in the L1 whether it was held Shared,
	// held Modified or absent. Ownership already exclusive (the common
	// write-hit fast path) means only the LLC dirty bit needs refreshing.
	if prior, hit := ff.l1.TouchState(b, coherence.LineModified); hit && prior == coherence.LineModified {
		if l, ok := ff.sock.llc.Probe(b); ok {
			l.Dirty = true
		}
		return
	}
	// §IV-D's insight applies to warming too: a page still private to this
	// thread has never been touched by any other thread, so no cache on the
	// machine can hold a copy of b and the whole invalidation sweep is
	// provably a no-op.
	if !m.classifier.IsPrivateTo(addr.PageOfBlock(b), coreID) {
		for _, other := range m.sockets {
			if other == ff.sock {
				continue
			}
			// The hierarchy is inclusive, so an LLC miss proves no L1 holds
			// the line either: one probe gates the whole on-chip sweep.
			if _, onChip := other.llc.Probe(b); onChip {
				other.invalidateOnChip(b)
			}
			// Detailed write misses invalidate remote private DRAM caches
			// in every such design (snoop invalidation, directory recall or
			// broadcast); leaving stale remote copies would hand the snoopy
			// design free remote hits a real run never sees. The DRAM cache
			// is a victim cache — it can hold lines the LLC no longer does —
			// so it is checked unconditionally (direct-mapped: a one-line
			// scan). Every socket has the writer's design, so the writer's
			// own private cache says whether the others have one.
			if ff.dc != nil {
				other.dramCache.WarmInvalidate(b)
			}
		}
		ff.sock.invalidateL1sExcept(coreID, b)
	}
	if ff.dc != nil {
		ff.dc.WarmWrite(b)
	}
	if victim, hit := ff.sock.llc.TouchDirty(b, coherence.LineModified); !hit {
		m.warmLLCMiss(ff, b, victim)
	}
}

// progress returns the cores' total instruction count and latest local time.
func progress(cores []*coreRunner) (instr uint64, now sim.Time) {
	for _, cr := range cores {
		instr += cr.core.Stats().Instructions
		now = max(now, cr.core.Now())
	}
	return instr, now
}

// runSampled executes the SMARTS-style sampled schedule over the cores:
// seeded initial fast-forward, then repeating units of detailed warm-up,
// measured window and fast-forward stretch until every stream is exhausted.
// The measured-window deltas feed the estimator; totals are extrapolated by
// the exact measured-to-total access ratio, so the whole result is a pure
// function of (config, trace, spec) and stays byte-identical across
// parallelism and repeated runs.
func (m *Machine) runSampled(ctx context.Context, src trace.Source, cores []*coreRunner, spec sample.Spec) (RunResult, error) {
	var ffInstr, ffAccesses uint64
	steps := 0

	ffCores := make([]ffCore, len(cores))
	for i, cr := range cores {
		sock := m.socketOf(cr.idx)
		ffCores[i] = ffCore{sock: sock, l1: sock.l1Of(cr.idx), dc: m.privateDRAMCache(sock)}
	}

	ffOne := func(cr *coreRunner, ffc *ffCore, target int) error {
		for cr.consumed < target {
			if !cr.fill() {
				return cr.rdErr
			}
			rec := cr.take()
			m.touch(ffc, cr.idx, rec)
			ffInstr += uint64(rec.Gap) + 1
			ffAccesses++
			if steps++; steps&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ff := func(n int) error {
		if n <= 0 {
			return nil
		}
		for i, cr := range cores {
			if err := ffOne(cr, &ffCores[i], cr.consumed+n); err != nil {
				return err
			}
		}
		return nil
	}
	detailed := func(n int) error {
		for _, cr := range cores {
			cr.limit = cr.consumed + n
		}
		return m.execute(ctx, cores)
	}
	exhausted := func() (bool, error) {
		for _, cr := range cores {
			if cr.fill() {
				return false, nil
			}
			if cr.rdErr != nil {
				return false, cr.rdErr
			}
		}
		return true, nil
	}

	if err := ff(spec.Phase()); err != nil {
		return RunResult{}, err
	}
	var windows []sample.Window
	// meas sums the measured windows' counts: the tally the estimator saw.
	var meas tally
	//c3dlint:allow ctxcheck(every iteration runs detailed() and ff(), both of which check ctx between accesses)
	for {
		done, err := exhausted()
		if err != nil {
			return RunResult{}, err
		}
		if done {
			break
		}
		if err := detailed(spec.Warm); err != nil {
			return RunResult{}, err
		}
		t0 := m.tally()
		instr0, now0 := progress(cores)
		if err := detailed(spec.Window); err != nil {
			return RunResult{}, err
		}
		d := m.tally()
		instr1, now1 := progress(cores)
		d.apply(t0, sub)
		if acc := d.Loads + d.Stores; acc > 0 {
			windows = append(windows, sample.Window{
				Accesses:          acc,
				Instructions:      instr1 - instr0,
				Cycles:            uint64(now1 - now0),
				LLCAccesses:       d.LLCAccesses,
				LLCMisses:         d.LLCMisses,
				FabricBytes:       d.Fabric.TotalBytes,
				MemAccesses:       d.MemAccesses(),
				RemoteMemAccesses: d.RemoteMemAccesses(),
			})
			meas.apply(d, add)
		}
		if err := ff(spec.Stretch); err != nil {
			return RunResult{}, err
		}
	}

	est, err := sample.EstimateWindows(windows)
	if err != nil {
		return RunResult{}, fmt.Errorf("machine: trace %q with spec %q: %w", src.Name(), spec, err)
	}

	// Exact stream totals: fast-forward saw every skipped record, the cores
	// counted every detailed one.
	var detailedInstr uint64
	for _, cr := range cores {
		cr.core.Drain()
		detailedInstr += cr.core.Stats().Instructions
	}
	totalInstr := ffInstr + detailedInstr
	detailedAccesses := m.counters.Loads + m.counters.Stores
	totalAccesses := ffAccesses + detailedAccesses
	sampled := meas.Loads + meas.Stores
	if sampled == 0 {
		return RunResult{}, fmt.Errorf("machine: trace %q with spec %q: measured windows contain no accesses", src.Name(), spec)
	}
	cycles := uint64(math.Round(est.CPI.Value * float64(totalInstr)))
	res := m.result(src.Name(), cores, cycles, totalInstr, meas, float64(totalAccesses)/float64(sampled))
	res.Sampling = &SamplingResult{
		Spec:             spec.String(),
		Windows:          len(windows),
		SampledAccesses:  sampled,
		DetailedAccesses: detailedAccesses,
		TotalAccesses:    totalAccesses,
		Estimates:        est,
	}
	return res, m.CheckInvariants()
}
