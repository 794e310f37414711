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

// ffPageMemoSize is the per-core page-memo table size (a power of two).
const ffPageMemoSize = 256

// ffCore is the per-core state of the functional-warming fast path: the
// socket and L1 resolved once per run instead of per record, plus two memos.
//
// The page memo records pages this core has already pushed through the
// classifier. Skipping repeats is exact because the classifier's transitions
// are absorbing for a pinned thread: after this core's first Access the page
// is either private-to-this-core or shared, and in both states every later
// Access by this core mutates nothing (private→shared transitions are
// triggered by the *other* core's first touch, which the memo never skips).
// The memo therefore survives stretches and detailed phases alike. The TLB
// is not warmed at all: its contents are miss-statistics-only (they never
// feed timing, and no sampled estimate reports them), so fast-forward
// traffic through it would be pure cost.
//
// The block memo is exact for the cache hierarchy: after any touch of block
// b, b is at the MRU position of this core's L1, so an immediately repeated
// read would only renumber (not reorder) the set's LRU sequence, and an
// immediately repeated write after a write finds the line Modified with the
// LLC copy already dirty. Cores fast-forward one at a time, so no other
// core's invalidations can interleave with the memo's lifetime; it resets at
// every stretch because detailed phases reorder what it summarises.
type ffCore struct {
	sock *Socket
	l1   *cache.Cache
	dc   *dramcache.Cache // nil for designs without a DRAM cache
	// pageMemo holds page+1 (so the zero value misses) in a direct-mapped
	// table; collisions just repeat a harmless classifier no-op.
	pageMemo [ffPageMemoSize]uint64
	// lastBlock is the most recently touched block; lastBlockMod records
	// whether this core is known to hold it Modified (set by the write path).
	lastBlock    addr.Block
	lastBlockMod bool
	hasLastB     bool
	// privMemo caches IsPrivateTo verdicts for this core's writes. "Not
	// private to me" is absorbing (a page never re-privatizes), so false
	// verdicts live forever; "private to me" is guarded by the classifier's
	// reclassification epoch, which advances on exactly the transitions that
	// could revoke it. Direct-mapped on the page number.
	privMemo [ffPrivMemoSize]privEntry
	// l1Filter is a one-sided presence filter over every L1 of this core's
	// socket: a clear bit proves no local L1 holds the block, a set bit means
	// "maybe". It is rebuilt from the actual L1 contents at the start of each
	// fast-forward segment and only ever gains bits afterwards (from this
	// core's own fills — the one way lines appear while it runs, since cores
	// fast-forward serially and sweeps only remove lines), so it stays
	// conservative and lets the eviction/write sweeps skip scanning eight
	// L1 sets for blocks provably absent.
	l1Filter [l1FilterWords]uint64
}

// l1FilterWords sizes the per-socket L1 presence filter (4096 bits — an
// order of magnitude above the lines eight quick-scale L1s can hold).
const l1FilterWords = 64

// ffPrivMemoSize is the direct-mapped privacy-memo size (a power of two).
const ffPrivMemoSize = 256

// privEntry is one privacy-memo slot; page holds page+1 so zero is empty.
type privEntry struct {
	page  uint64
	epoch uint64
	priv  bool
}

func l1Slot(b addr.Block) (int, uint64) {
	h := uint64(b) * 0x9e3779b97f4a7c15
	h >>= 64 - 12 // log2(l1FilterWords*64) bits
	return int(h >> 6), 1 << (h & 63)
}

// noteL1 records b as possibly held by a local L1.
func (ff *ffCore) noteL1(b addr.Block) {
	w, bit := l1Slot(b)
	ff.l1Filter[w] |= bit
}

// l1MayHold reports whether a local L1 could hold b; false is exact.
func (ff *ffCore) l1MayHold(b addr.Block) bool {
	w, bit := l1Slot(b)
	return ff.l1Filter[w]&bit != 0
}

// rebuildL1Filter resets the filter to the socket's current L1 contents.
func (ff *ffCore) rebuildL1Filter() {
	ff.l1Filter = [l1FilterWords]uint64{}
	for _, l1 := range ff.sock.l1s {
		l1.ForEach(func(l cache.Line) { ff.noteL1(l.Block) })
	}
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
	// Same block as the previous record: a repeated read is a no-op (the
	// line is already MRU everywhere it lives) and a repeated write to an
	// already-Modified line likewise; see the ffCore memo-exactness note.
	if ff.hasLastB && b == ff.lastBlock {
		if rec.Kind != trace.Write {
			return
		}
		if ff.lastBlockMod {
			return
		}
		m.touchWrite(ff, coreID, b)
		ff.lastBlockMod = true
		return
	}
	page := addr.PageOf(rec.Addr)
	if slot := &ff.pageMemo[uint64(page)&(ffPageMemoSize-1)]; *slot != uint64(page)+1 {
		// Threads are pinned in this simulator, so the thread id equals the
		// core id and migrations never occur.
		m.classifier.Access(page, coreID, coreID)
		*slot = uint64(page) + 1
	}
	ff.lastBlock = b
	ff.hasLastB = true
	if rec.Kind == trace.Write {
		ff.lastBlockMod = true
		m.touchWrite(ff, coreID, b)
		return
	}
	ff.lastBlockMod = false
	// Touch installs on miss, so an L1 hit is the whole fast path; an L1 miss
	// leaves b installed there and only the LLC remains. L1 victims are
	// dropped silently (the L1s are write-through into the inclusive LLC).
	ff.noteL1(b)
	if _, hit := ff.l1.Touch(b, coherence.LineShared); hit {
		return
	}
	if victim, hit := ff.sock.llc.Touch(b, coherence.LineShared); !hit && victim.Valid {
		// Keep the hierarchy inclusive; the write-back (if the victim was
		// dirty) is only a statistic, and fast-forward produces none. The
		// victim is usually the set's coldest line and long gone from every
		// L1, so the filter skips most of these eight-way sweeps.
		if ff.l1MayHold(victim.Block) {
			for _, l1 := range ff.sock.l1s {
				l1.Invalidate(victim.Block)
			}
		}
		// Every design with a DRAM cache runs it as an LLC victim cache, so
		// fast-forwarded evictions must land there too — a cold DRAM cache
		// is the single largest warming bias (every measured-window miss
		// would pay the memory path a full run's warm giga-cache absorbs).
		if ff.dc != nil {
			ff.dc.Warm(victim.Block, victim.State, victim.Dirty)
		}
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
	// Sampled before this write plants its own copy: does any local L1
	// possibly hold b? A clear bit makes the local sweep below a proven
	// no-op even when the page is shared.
	mayLocal := ff.l1MayHold(b)
	// One scan takes the line Modified in the L1 whether it was held Shared,
	// held Modified or absent. Ownership already exclusive (the common
	// write-hit fast path) means only the LLC dirty bit needs refreshing.
	if prior, hit := ff.l1.TouchState(b, coherence.LineModified); hit {
		if prior == coherence.LineModified {
			if l, ok := ff.sock.llc.Probe(b); ok {
				l.Dirty = true
			}
			return
		}
	} else {
		ff.noteL1(b)
	}
	// §IV-D's insight applies to warming too: a page still private to this
	// thread has never been touched by any other thread, so no cache on the
	// machine can hold a copy of b and the whole invalidation sweep is
	// provably a no-op. The verdict is memoised per core under the
	// classifier's reclassification epoch (see privEntry), which invalidates
	// a cached "private" the moment another thread's first touch ends it.
	page := addr.PageOfBlock(b)
	var priv bool
	if e := &ff.privMemo[uint64(page)&(ffPrivMemoSize-1)]; e.page == uint64(page)+1 &&
		(!e.priv || e.epoch == m.classifier.Epoch()) {
		priv = e.priv
	} else {
		priv = m.classifier.IsPrivateTo(page, coreID)
		*e = privEntry{page: uint64(page) + 1, epoch: m.classifier.Epoch(), priv: priv}
	}
	if !priv {
		for _, other := range m.sockets {
			if other == ff.sock {
				continue
			}
			// The hierarchy is inclusive, so an LLC miss proves no L1 holds
			// the line either: one probe gates the whole on-chip sweep.
			if _, onChip := other.llc.Probe(b); onChip {
				other.invalidateOnChip(b)
			}
			// Detailed write misses invalidate remote DRAM caches in every
			// DRAM-cache design (snoop invalidation, directory recall or
			// broadcast); leaving stale remote copies would hand the snoopy
			// design free remote hits a real run never sees. The DRAM cache
			// is a victim cache — it can hold lines the LLC no longer does —
			// so it is checked unconditionally (direct-mapped: a one-line
			// scan).
			if other.dramCache != nil {
				other.dramCache.WarmInvalidate(b)
			}
		}
		if mayLocal {
			ff.sock.invalidateL1sExcept(coreID, b)
		}
	}
	if ff.dc != nil {
		ff.dc.WarmWrite(b)
	}
	if victim, hit := ff.sock.llc.TouchDirty(b, coherence.LineModified); !hit && victim.Valid {
		if ff.l1MayHold(victim.Block) {
			for _, l1 := range ff.sock.l1s {
				l1.Invalidate(victim.Block)
			}
		}
		if ff.dc != nil {
			ff.dc.Warm(victim.Block, victim.State, victim.Dirty)
		}
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
		ffCores[i] = ffCore{sock: sock, l1: sock.l1Of(cr.idx), dc: sock.dramCache}
	}

	ffOne := func(cr *coreRunner, ffc *ffCore, target int) error {
		// A detailed phase ran since the last stretch and may have reordered
		// the TLB LRU, so the first record always classifies in full.
		ffc.hasLastB = false
		ffc.lastBlockMod = false
		// Other cores (and detailed phases) changed the socket's L1s since
		// this core last ran, so the presence filter restarts from truth.
		ffc.rebuildL1Filter()
		// Drain the record exhausted() may have prefetched, then fast-forward
		// in slices when the reader supports it: one bounds-checked window
		// per stretch instead of an interface call per record.
		if cr.hasPending && cr.consumed < target {
			rec := cr.pending
			cr.hasPending = false
			cr.consumed++
			m.touch(ffc, cr.idx, rec)
			ffInstr += uint64(rec.Gap) + 1
			ffAccesses++
		}
		if br, ok := cr.rr.(trace.BulkReader); ok {
			for cr.consumed < target {
				recs := br.NextN(target - cr.consumed)
				if len(recs) == 0 {
					break
				}
				cr.consumed += len(recs)
				for i := range recs {
					m.touch(ffc, cr.idx, recs[i])
					ffInstr += uint64(recs[i].Gap) + 1
				}
				ffAccesses += uint64(len(recs))
				// One check per window bounds cancellation latency to a
				// stretch, the same order as the masked per-record check.
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		for cr.consumed < target {
			if !cr.fill() {
				if cr.rdErr != nil {
					return fmt.Errorf("machine: core %d stream: %w", cr.idx, cr.rdErr)
				}
				return nil
			}
			rec := cr.pending
			cr.hasPending = false
			cr.consumed++
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
				return false, fmt.Errorf("machine: core %d stream: %w", cr.idx, cr.rdErr)
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
