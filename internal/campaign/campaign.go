// Package campaign is the distributed-campaign coordinator behind
// `c3dd -coordinator`: it shards an ordered list of job specs across a fleet
// of worker daemons over the public job API (pkg/c3d/api), routes each job
// through a pluggable policy, retries jobs whose worker died mid-flight, and
// assembles the per-job result documents in submission order.
//
// Two properties make distribution invisible in the output. First, every job
// is deterministic — the same spec produces the same result bytes on any
// worker at any parallelism — so routing is purely a performance decision
// and a retried or duplicated job is harmless. Second, assembly is by
// submission index, never completion order, so campaign output is
// byte-identical to a local run of the same specs. The fleet tests pin both:
// results are cmp-equal across routing policies and worker counts 1, 2
// and 4.
//
// The same determinism funds the content-addressed result cache: results are
// keyed by a hash of the canonical spec (CacheKey), so a repeated campaign —
// or any campaign sharing jobs with an earlier one — is answered without
// dispatching anything. Admission is token-bucket limited at the door: a
// campaign takes one token per job or is rejected whole with 429, and a
// campaign with more jobs than the bucket's burst is rejected with 400.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"c3d/pkg/c3d/api"
)

// Config parameterises a Coordinator.
type Config struct {
	// Workers lists the base URLs of the worker daemons (required).
	Workers []string
	// Policy names the routing policy (default DefaultPolicy).
	Policy string
	// RatePerSec and Burst shape the admission token bucket: a campaign
	// submission takes one token per job (defaults 50/s, burst 200), and a
	// campaign of more than Burst jobs is invalid.
	RatePerSec float64
	Burst      int
	// CacheEntries bounds the content-addressed result cache (default 1024).
	CacheEntries int
	// MaxAttempts bounds dispatch attempts per job before the job — and its
	// campaign — fails (default 3). Only transient failures (worker
	// unreachable, job cancelled underneath us) consume retries; a job the
	// worker reports as failed is deterministic and fails immediately.
	MaxAttempts int
	// MaxConcurrent bounds jobs dispatched to the fleet at once, across all
	// campaigns (default 2x worker count).
	MaxConcurrent int
	// MaxCampaigns bounds retained finished campaigns (default 256).
	MaxCampaigns int
	// Cooldown is how long a worker sits out after a transient failure
	// before it is routable again (default 2s).
	Cooldown time.Duration
	// DispatchTimeout bounds one dispatch (submit + run + fetch result) of
	// one job on one worker. A dispatch that exceeds it counts as a transient
	// failure: the worker is benched for the cooldown and the job reassigned.
	// Zero disables the deadline.
	DispatchTimeout time.Duration
	// HedgeAfter speculatively re-dispatches a job to a second worker when
	// the first has not answered within this duration, first result winning
	// and the loser cancelled. Zero disables hedging. Safe because results
	// are deterministic and content-addressed: a duplicated job can waste a
	// dispatch, never change an answer.
	HedgeAfter time.Duration
	// ProbeTimeout bounds each /healthz load probe (default 2s).
	ProbeTimeout time.Duration
	// CancelGrace bounds the best-effort worker-side job cancel issued when
	// a campaign is cancelled mid-dispatch (default 2s).
	CancelGrace time.Duration
	// JournalDir enables the durable campaign journal: an append-only JSONL
	// WAL plus a disk-backed result cache under this directory. On
	// construction the coordinator replays the journal, restores finished
	// campaigns and resumes interrupted ones (see journal.go). Empty keeps
	// everything in memory.
	JournalDir string
	// ClientOptions is applied to every per-worker api.Client.
	ClientOptions []api.ClientOption
	// Logf receives coordinator decisions (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = DefaultPolicy
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 50
	}
	if c.Burst <= 0 {
		c.Burst = 200
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * len(c.Workers)
	}
	if c.MaxCampaigns <= 0 {
		c.MaxCampaigns = 256
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// worker is the coordinator's handle on one daemon: its client plus health
// and load bookkeeping. healthy-ness is edge-triggered by dispatch outcomes —
// a transient failure starts a cooldown during which the worker is not
// routable; the next dispatch after cooldown re-probes it implicitly.
type worker struct {
	index  int
	url    string
	client *api.Client

	mu       sync.Mutex
	cooldown time.Time // unroutable until this instant
	assigned int64     // jobs ever dispatched here
	inflight int64     // dispatched and not yet finished
	queued   int       // last /healthz scheduler counters
	running  int
}

func (w *worker) healthy(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !now.Before(w.cooldown) || w.cooldown.IsZero()
}

func (w *worker) benched(until time.Time) {
	w.mu.Lock()
	w.cooldown = until
	w.mu.Unlock()
}

func (w *worker) view(now time.Time) api.WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	return api.WorkerHealth{
		URL:      w.url,
		Healthy:  !now.Before(w.cooldown) || w.cooldown.IsZero(),
		Assigned: w.assigned,
		Inflight: w.inflight,
	}
}

// Coordinator shards campaigns across a worker fleet. Construct with New,
// serve its Handler, or drive it directly through Submit/Status/Results.
type Coordinator struct {
	cfg     Config
	workers []*worker
	spec    PolicySpec
	bucket  *tokenBucket
	cache   *resultCache
	caps    api.Capabilities
	sem     chan struct{} // global dispatch slots
	journal *journal      // nil without JournalDir

	// stopCtx is the parent of every campaign context: cancelling it (Close)
	// cancels all running campaigns at once. runWg counts live campaign
	// runners so Close and Drain can wait for them.
	stopCtx   context.Context
	stop      context.CancelFunc
	runWg     sync.WaitGroup
	closeOnce sync.Once

	policyMu sync.Mutex // serialises Pick (policies keep state)
	policy   Policy

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []*campaign // insertion order, for listing + eviction
	nextID    int
	closed    bool
}

// New builds a coordinator and performs the capabilities handshake: every
// worker must be reachable and the fleet must be homogeneous (identical
// capability documents), because a heterogeneous fleet could route the same
// spec to workers that disagree about it. The fleet's shared capabilities
// become the coordinator's own /v1/capabilities answer.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("campaign: no workers configured")
	}
	if cfg.DispatchTimeout < 0 {
		return nil, fmt.Errorf("campaign: DispatchTimeout must be non-negative")
	}
	if cfg.HedgeAfter < 0 {
		return nil, fmt.Errorf("campaign: HedgeAfter must be non-negative")
	}
	spec, err := LookupPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	diskCache := ""
	if cfg.JournalDir != "" {
		diskCache = cacheDir(cfg.JournalDir)
	}
	stopCtx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		spec:      spec,
		policy:    spec.New(),
		bucket:    newTokenBucket(cfg.RatePerSec, cfg.Burst),
		cache:     newResultCache(cfg.CacheEntries, diskCache, cfg.Logf),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		stopCtx:   stopCtx,
		stop:      stop,
		campaigns: make(map[string]*campaign),
	}
	for i, u := range cfg.Workers {
		c.workers = append(c.workers, &worker{
			index:  i,
			url:    u,
			client: api.NewClient(u, cfg.ClientOptions...),
		})
	}
	for i, w := range c.workers {
		caps, err := w.client.Capabilities(ctx)
		if err != nil {
			stop()
			return nil, fmt.Errorf("campaign: worker %s handshake: %w", w.url, err)
		}
		if i == 0 {
			c.caps = *caps
			continue
		}
		if !reflect.DeepEqual(c.caps, *caps) {
			stop()
			return nil, fmt.Errorf("campaign: heterogeneous fleet: %s (version %s) and %s (version %s) disagree on capabilities",
				c.workers[0].url, c.caps.Version, w.url, caps.Version)
		}
	}
	if cfg.JournalDir != "" {
		jl, recs, err := openJournal(cfg.JournalDir, cfg.Logf)
		if err != nil {
			stop()
			return nil, err
		}
		c.journal = jl
		c.replay(recs)
	}
	cfg.Logf("campaign: coordinator up: %d workers, policy %s", len(c.workers), spec.Name)
	return c, nil
}

// replay rebuilds journaled campaigns after a restart. A campaign with a
// journaled terminal state is restored as a record: done campaigns reload
// their result bytes from the disk cache (and are re-run instead if any
// result went missing), failed and cancelled ones keep their terminal state.
// A campaign without one — interrupted by a crash or stop — is re-run
// through the normal runner with every job queued: jobs whose results are
// already in the disk cache resolve as cache hits without touching the
// fleet, only the remainder is dispatched. Assembly by submission index then
// makes the resumed output byte-identical to an uninterrupted run.
func (c *Coordinator) replay(recs []journalRecord) {
	states, maxSeq := replayJournal(recs)
	c.nextID = maxSeq
	resumed := 0
	for _, st := range states {
		ctx, cancel := context.WithCancel(c.stopCtx)
		cp := &campaign{id: st.id, created: time.Now(), ctx: ctx, cancel: cancel, state: api.StateRunning}
		ok := true
		for _, js := range st.spec.Jobs {
			key, err := CacheKey(js)
			if err != nil {
				c.cfg.Logf("campaign: replay: %s has an uncanonicalisable spec (%v); dropping it", st.id, err)
				ok = false
				break
			}
			cp.jobs = append(cp.jobs, &campaignJob{spec: js, key: key, state: api.StateQueued})
		}
		if !ok || len(cp.jobs) == 0 {
			cancel()
			continue
		}
		if api.Terminal(st.state) {
			c.restoreTerminal(cp, st)
		} else {
			c.runWg.Add(1)
			go c.run(cp)
			resumed++
		}
		c.mu.Lock()
		c.campaigns[cp.id] = cp
		c.order = append(c.order, cp)
		c.mu.Unlock()
	}
	if len(states) > 0 {
		c.cfg.Logf("campaign: journal replayed: %d campaigns restored, %d resumed", len(states)-resumed, resumed)
	}
}

// restoreTerminal settles a replayed campaign that had already reached a
// terminal state: jobs whose results are still in the cache come back as
// done cache hits, the rest inherit the campaign's fate. A done campaign
// missing a result (cache wiped between runs) is demoted to a re-run — the
// journal records intent, the cache holds the bytes.
func (c *Coordinator) restoreTerminal(cp *campaign, st *replayState) {
	if st.state == api.StateDone {
		for _, j := range cp.jobs {
			if !c.cache.has(j.key) {
				c.cfg.Logf("campaign: replay: %s is journaled done but result %s is gone; re-running", cp.id, j.key)
				c.runWg.Add(1)
				go c.run(cp)
				return
			}
		}
	}
	for _, j := range cp.jobs {
		if data, ok := c.cache.get(j.key); ok {
			j.state, j.result, j.cacheHit = api.StateDone, data, true
		} else {
			j.state, j.errMsg = api.StateCancelled, "not completed before shutdown"
		}
	}
	cp.state, cp.err = st.state, st.errMsg
	cp.cancel()
}

// Capabilities returns the fleet's shared capability document.
func (c *Coordinator) Capabilities() api.Capabilities { return c.caps }

// Close hard-stops the coordinator: admission stops, every running campaign
// is cancelled (in-flight worker jobs get a best-effort cancel), and Close
// blocks until all campaign runners have settled. Stop-interrupted campaigns
// are deliberately not journaled terminal, so a journal-configured restart
// resumes them where they left off. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.stop()
		c.runWg.Wait()
		c.journal.close()
		c.cfg.Logf("campaign: coordinator stopped")
	})
}

// Drain gracefully stops the coordinator: admission stops immediately (new
// submissions answer 503 shutting_down), campaigns already admitted run to
// completion, and Drain returns once they settle — or once ctx expires, in
// which case it falls back to Close's hard cancel and returns ctx's error.
// Either way the coordinator is fully stopped on return.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.runWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		c.cfg.Logf("campaign: drain deadline expired; cancelling remaining campaigns")
	}
	c.Close()
	return err
}

// campaign is one submitted CampaignSpec working its way through the fleet.
type campaign struct {
	id      string
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	state string
	err   string
	jobs  []*campaignJob
}

type campaignJob struct {
	spec api.JobSpec
	key  string // content address

	mu       sync.Mutex
	state    string
	worker   string
	cacheHit bool
	attempts int
	hedges   int
	errMsg   string
	result   []byte
}

// Submit admits a campaign: rejects one larger than the admission burst,
// validates every spec against the fleet's capabilities, charges the token
// bucket one token per job (atomically — admit all or reject all), and starts
// the runner. Errors are *api.Error so the HTTP layer maps them directly.
func (c *Coordinator) Submit(spec api.CampaignSpec) (*api.SubmitResponse, error) {
	if len(spec.Jobs) == 0 {
		return nil, &api.Error{Code: api.CodeInvalidSpec, Message: "campaign has no jobs", HTTPStatus: http.StatusBadRequest}
	}
	// The bucket never holds more than Burst tokens, so a larger campaign
	// could never be admitted and retrying it is pointless: it is a bad
	// spec, not a rate limit.
	if len(spec.Jobs) > c.cfg.Burst {
		return nil, &api.Error{
			Code:       api.CodeInvalidSpec,
			Message:    fmt.Sprintf("campaign has %d jobs but the admission burst is %d; split it into campaigns of at most %d jobs", len(spec.Jobs), c.cfg.Burst, c.cfg.Burst),
			HTTPStatus: http.StatusBadRequest,
		}
	}
	for i, js := range spec.Jobs {
		if err := c.caps.SupportsSpec(js); err != nil {
			return nil, &api.Error{
				Code:       api.CodeInvalidSpec,
				Message:    fmt.Sprintf("job %d: %v", i, err),
				HTTPStatus: http.StatusBadRequest,
			}
		}
	}
	if !c.bucket.take(len(spec.Jobs)) {
		return nil, &api.Error{
			Code:       api.CodeRateLimited,
			Message:    fmt.Sprintf("admission rate exceeded (%d jobs; %g/s, burst %d)", len(spec.Jobs), c.cfg.RatePerSec, c.cfg.Burst),
			HTTPStatus: http.StatusTooManyRequests,
		}
	}

	ctx, cancel := context.WithCancel(c.stopCtx)
	cp := &campaign{created: time.Now(), ctx: ctx, cancel: cancel, state: api.StateRunning}
	for _, js := range spec.Jobs {
		key, err := CacheKey(js)
		if err != nil {
			cancel()
			return nil, &api.Error{Code: api.CodeInvalidSpec, Message: err.Error(), HTTPStatus: http.StatusBadRequest}
		}
		cp.jobs = append(cp.jobs, &campaignJob{spec: js, key: key, state: api.StateQueued})
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return nil, &api.Error{Code: api.CodeShuttingDown, Message: "coordinator is shutting down", HTTPStatus: http.StatusServiceUnavailable}
	}
	c.nextID++
	cp.id = fmt.Sprintf("campaign-%06d", c.nextID)
	c.campaigns[cp.id] = cp
	c.order = append(c.order, cp)
	c.evictLocked()
	c.runWg.Add(1)
	c.mu.Unlock()

	// Journal admission before the runner starts, so job records can never
	// precede their campaign record in the WAL.
	c.journal.append(journalRecord{Type: recCampaign, ID: cp.id, Spec: &spec})
	c.cfg.Logf("campaign: %s admitted: %d jobs", cp.id, len(cp.jobs))
	go c.run(cp)
	return &api.SubmitResponse{ID: cp.id, State: api.StateRunning}, nil
}

// evictLocked drops the oldest finished campaigns beyond the retention
// bound; unfinished campaigns are never evicted. Mirrors the job-table
// eviction in internal/server.
func (c *Coordinator) evictLocked() {
	excess := len(c.order) - c.cfg.MaxCampaigns
	if excess <= 0 {
		return
	}
	kept := c.order[:0]
	for _, cp := range c.order {
		if excess > 0 && api.Terminal(cp.snapshot().State) {
			delete(c.campaigns, cp.id)
			excess--
			continue
		}
		kept = append(kept, cp)
	}
	c.order = kept
}

// run executes every job of a campaign (bounded by the coordinator-wide
// dispatch semaphore) and settles the campaign state when all are terminal.
func (c *Coordinator) run(cp *campaign) {
	defer c.runWg.Done()
	var wg sync.WaitGroup
	for i, j := range cp.jobs {
		wg.Add(1)
		go func(idx int, j *campaignJob) {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
			case <-cp.ctx.Done():
				j.finish(api.StateCancelled, "", "campaign cancelled")
				return
			}
			c.runJob(cp, idx, j)
		}(i, j)
	}
	wg.Wait()

	state, errMsg := api.StateDone, ""
	for i, j := range cp.jobs {
		js := j.doc(i)
		switch js.State {
		case api.StateFailed:
			state = api.StateFailed
			if errMsg == "" {
				errMsg = fmt.Sprintf("job %d failed: %s", i, js.Error)
			}
		case api.StateCancelled:
			if state == api.StateDone {
				state, errMsg = api.StateCancelled, "campaign cancelled"
			}
		}
	}
	cp.mu.Lock()
	cp.state, cp.err = state, errMsg
	cp.mu.Unlock()
	cp.cancel()
	// A cancellation caused by coordinator shutdown is not a verdict on the
	// campaign — leave it non-terminal in the journal so a restart resumes
	// it. Every other settlement (done, failed, user cancel) is journaled.
	if c.stopCtx.Err() == nil || state != api.StateCancelled {
		c.journal.append(journalRecord{Type: recCampaignState, ID: cp.id, State: state, Error: errMsg})
	}
	c.cfg.Logf("campaign: %s %s (cache hits %d/%d)", cp.id, state, cp.cacheHits(), len(cp.jobs))
}

// runJob resolves one job: cache first, then dispatch with
// retry-and-reassignment. Worker-reported failure is deterministic and
// final; a worker that vanished, hung past the dispatch deadline or
// cancelled underneath us is benched for the cooldown and the job is
// reassigned, up to MaxAttempts.
func (c *Coordinator) runJob(cp *campaign, idx int, j *campaignJob) {
	if data, ok := c.cache.get(j.key); ok {
		j.mu.Lock()
		j.state, j.result, j.cacheHit = api.StateDone, data, true
		j.mu.Unlock()
		c.journal.append(journalRecord{Type: recJob, ID: cp.id, Index: idx, Key: j.key, State: api.StateDone})
		return
	}

	var lastErr string
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if cp.ctx.Err() != nil {
			j.finish(api.StateCancelled, "", "campaign cancelled")
			return
		}
		w := c.pick(cp.ctx)
		if w == nil {
			if cp.ctx.Err() != nil {
				j.finish(api.StateCancelled, "", "campaign cancelled")
			} else {
				j.finish(api.StateFailed, "", fmt.Sprintf("no healthy worker (after %d attempts: %s)", attempt-1, lastErr))
			}
			return
		}
		j.mu.Lock()
		j.state, j.worker, j.attempts = api.StateRunning, w.url, attempt
		j.mu.Unlock()

		data, permanent, err := c.dispatchHedged(cp, idx, j, w)
		if err == nil {
			c.cache.put(j.key, data)
			j.finish(api.StateDone, "", "")
			j.mu.Lock()
			j.result = data
			j.mu.Unlock()
			c.journal.append(journalRecord{Type: recJob, ID: cp.id, Index: idx, Key: j.key, State: api.StateDone})
			return
		}
		if cp.ctx.Err() != nil {
			j.finish(api.StateCancelled, "", "campaign cancelled")
			return
		}
		if permanent {
			// Deterministic failure: every worker would report the same, and
			// the campaign cannot succeed — stop paying for its other jobs.
			j.finish(api.StateFailed, "", err.Error())
			cp.cancel()
			return
		}
		lastErr = err.Error()
	}
	j.finish(api.StateFailed, "", fmt.Sprintf("exhausted %d attempts: %s", c.cfg.MaxAttempts, lastErr))
	cp.cancel()
}

// dispatchHedged runs one dispatch round for a job: a primary worker, plus —
// when HedgeAfter is set and the primary is slow — at most one speculative
// re-dispatch to a second worker. First verdict wins: a success or a
// deterministic failure from either dispatch settles the round and cancels
// the other (which in turn cancels the job worker-side). Hedging is safe
// because results are content-addressed and bit-deterministic, so a
// duplicated job can waste a dispatch but never change an answer. A worker
// whose dispatch failed transiently (or timed out against DispatchTimeout)
// is benched inside the round.
func (c *Coordinator) dispatchHedged(cp *campaign, idx int, j *campaignJob, primary *worker) ([]byte, bool, error) {
	type outcome struct {
		w         *worker
		data      []byte
		permanent bool
		err       error
	}
	results := make(chan outcome, 2) // buffered: a late loser must never block
	var cancelMu sync.Mutex
	var cancels []context.CancelFunc
	cancelAll := func() {
		cancelMu.Lock()
		for _, cancel := range cancels {
			cancel()
		}
		cancelMu.Unlock()
	}
	defer cancelAll()

	launch := func(w *worker) {
		ctx, cancel := context.WithCancel(cp.ctx)
		if c.cfg.DispatchTimeout > 0 {
			ctx, cancel = context.WithTimeout(cp.ctx, c.cfg.DispatchTimeout)
		}
		cancelMu.Lock()
		cancels = append(cancels, cancel)
		cancelMu.Unlock()
		c.runWg.Add(1)
		go func() {
			defer c.runWg.Done()
			data, permanent, err := c.dispatch(ctx, w, j.spec)
			results <- outcome{w: w, data: data, permanent: permanent, err: err}
		}()
	}
	launch(primary)
	launched := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var firstErr error
	for settled := 0; settled < launched; {
		select {
		case out := <-results:
			settled++
			if out.err == nil || out.permanent {
				// This dispatch settles the round; credit (or blame) its
				// worker, which under hedging may not be the primary.
				j.mu.Lock()
				j.worker = out.w.url
				j.mu.Unlock()
				return out.data, out.permanent, out.err
			}
			if cp.ctx.Err() == nil {
				until := time.Now().Add(c.cfg.Cooldown)
				out.w.benched(until)
				c.cfg.Logf("campaign: %s job %d on %s failed transiently (%v); benching worker until %s",
					cp.id, idx, out.w.url, out.err, until.Format(time.RFC3339))
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// The hedge goes through the policy without a load refresh: it
			// is opportunistic, so if no other worker is routable right now
			// there simply is no hedge.
			hw := c.route(time.Now(), primary)
			if hw == nil {
				continue // no second worker free; keep waiting on the primary
			}
			j.mu.Lock()
			j.attempts++
			j.hedges++
			j.mu.Unlock()
			c.cfg.Logf("campaign: %s job %d straggling on %s after %s; hedging to %s",
				cp.id, idx, primary.url, c.cfg.HedgeAfter, hw.url)
			launch(hw)
			launched++
		}
	}
	return nil, false, firstErr
}

// pick chooses a worker through the routing policy, refreshing /healthz
// counters first when the policy needs load data. When every worker is
// benched it waits for the earliest cooldown to lapse rather than failing —
// a fleet-wide blip should not kill a campaign. Returns nil only when the
// campaign is cancelled while waiting.
func (c *Coordinator) pick(ctx context.Context) *worker {
	for {
		now := time.Now()
		if c.spec.NeedsLoad {
			c.refreshLoads(ctx)
			now = time.Now()
		}
		if w := c.route(now, nil); w != nil {
			return w
		}
		// All benched (or the policy abstained): wait for the earliest
		// cooldown to lapse, then retry.
		wait := c.cfg.Cooldown
		for _, w := range c.workers {
			w.mu.Lock()
			if d := w.cooldown.Sub(now); d > 0 && d < wait {
				wait = d
			}
			w.mu.Unlock()
		}
		select {
		case <-time.After(wait + time.Millisecond):
		case <-ctx.Done():
			return nil
		}
	}
}

// route asks the policy to choose among the workers healthy at now, leaving
// out skip. It returns nil when none is healthy or the policy abstains.
func (c *Coordinator) route(now time.Time, skip *worker) *worker {
	var views []WorkerView
	for _, w := range c.workers {
		if w == skip || !w.healthy(now) {
			continue
		}
		w.mu.Lock()
		views = append(views, WorkerView{Index: w.index, Queued: w.queued, Running: w.running, Inflight: w.inflight})
		w.mu.Unlock()
	}
	if len(views) == 0 {
		return nil
	}
	c.policyMu.Lock()
	i := c.policy.Pick(views)
	c.policyMu.Unlock()
	if i < 0 || i >= len(views) {
		return nil
	}
	return c.workers[views[i].Index]
}

// refreshLoads probes every routable worker's /healthz so load-aware
// policies see fresh scheduler counters. A worker that fails its probe is
// benched — the probe doubles as a health check.
func (c *Coordinator) refreshLoads(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, w := range c.workers {
		if !w.healthy(now) {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			defer cancel()
			h, err := w.client.Health(probeCtx)
			if err != nil {
				w.benched(time.Now().Add(c.cfg.Cooldown))
				return
			}
			w.mu.Lock()
			w.queued, w.running = h.Queued, h.Running
			w.mu.Unlock()
		}(w)
	}
	wg.Wait()
}

// dispatch runs one job on one worker end to end: submit, wait, fetch the
// result. permanent marks failures that retrying elsewhere cannot fix (the
// job itself failed — deterministic); everything else (transport errors,
// the worker cancelling the job, e.g. during shutdown) is transient and
// worth reassigning.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, spec api.JobSpec) (data []byte, permanent bool, err error) {
	w.mu.Lock()
	w.assigned++
	w.inflight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()

	sub, err := w.client.Submit(ctx, spec)
	if err != nil {
		return nil, false, fmt.Errorf("submit: %w", err)
	}
	st, err := w.client.Wait(ctx, sub.ID)
	if err != nil {
		if ctx.Err() != nil {
			// Campaign cancelled, dispatch deadline hit, or a hedge won
			// elsewhere: tell the worker to stop wasting cycles on this job.
			cancelCtx, cancel := context.WithTimeout(context.Background(), c.cfg.CancelGrace)
			defer cancel()
			w.client.Cancel(cancelCtx, sub.ID)
		}
		return nil, false, fmt.Errorf("wait for %s: %w", sub.ID, err)
	}
	switch st.State {
	case api.StateDone:
		raw, err := w.client.Result(ctx, sub.ID)
		if err != nil {
			return nil, false, fmt.Errorf("result of %s: %w", sub.ID, err)
		}
		// Keep the JSON value bytes only: a result endpoint's trailing
		// newline is presentation, and json.RawMessage cannot carry it
		// through the results envelope anyway. Trimming here keeps the
		// cache, the Go API and the HTTP API bit-for-bit consistent.
		return bytes.TrimSpace(raw), false, nil
	case api.StateFailed:
		return nil, true, fmt.Errorf("worker %s job %s failed: %s", w.url, sub.ID, st.Error)
	default: // cancelled underneath us (worker drain/restart)
		return nil, false, fmt.Errorf("worker %s job %s %s", w.url, sub.ID, st.State)
	}
}

func (j *campaignJob) finish(state, workerURL, errMsg string) {
	j.mu.Lock()
	j.state, j.errMsg = state, errMsg
	if workerURL != "" {
		j.worker = workerURL
	}
	j.mu.Unlock()
}

func (j *campaignJob) doc(idx int) api.CampaignJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.CampaignJob{
		Index:    idx,
		State:    j.state,
		Worker:   j.worker,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Hedges:   j.hedges,
		Error:    j.errMsg,
	}
}

func (cp *campaign) cacheHits() int {
	n := 0
	for _, j := range cp.jobs {
		j.mu.Lock()
		if j.cacheHit {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (cp *campaign) snapshot() api.CampaignStatus {
	cp.mu.Lock()
	state, errMsg := cp.state, cp.err
	cp.mu.Unlock()
	st := api.CampaignStatus{
		ID:    cp.id,
		State: state,
		Error: errMsg,
		Total: len(cp.jobs),
		Jobs:  make([]api.CampaignJob, 0, len(cp.jobs)),
	}
	for i, j := range cp.jobs {
		doc := j.doc(i)
		st.Jobs = append(st.Jobs, doc)
		if doc.State == api.StateDone {
			st.Done++
		}
		if doc.CacheHit {
			st.CacheHits++
		}
	}
	return st
}

// lookup finds a campaign by id.
func (c *Coordinator) lookup(id string) (*campaign, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.campaigns[id]
	return cp, ok
}

// Status returns one campaign's status document.
func (c *Coordinator) Status(id string) (*api.CampaignStatus, error) {
	cp, ok := c.lookup(id)
	if !ok {
		return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("unknown campaign %q", id), HTTPStatus: http.StatusNotFound}
	}
	st := cp.snapshot()
	return &st, nil
}

// List returns one page of campaign statuses in submission order.
func (c *Coordinator) List(offset, limit int) *api.CampaignPage {
	c.mu.Lock()
	all := make([]*campaign, len(c.order))
	copy(all, c.order)
	c.mu.Unlock()
	total := len(all)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	page := api.CampaignPage{Campaigns: []api.CampaignStatus{}, Total: total, Offset: offset}
	for _, cp := range all[offset:end] {
		page.Campaigns = append(page.Campaigns, cp.snapshot())
	}
	return &page
}

// Results returns a finished campaign's per-job result documents in
// submission order. Unfinished campaigns answer conflict; failed or
// cancelled ones answer job_failed with the first error.
func (c *Coordinator) Results(id string) (*api.CampaignResults, error) {
	cp, ok := c.lookup(id)
	if !ok {
		return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("unknown campaign %q", id), HTTPStatus: http.StatusNotFound}
	}
	st := cp.snapshot()
	switch {
	case st.State == api.StateDone:
		res := &api.CampaignResults{ID: cp.id, Results: make([]json.RawMessage, len(cp.jobs))}
		for i, j := range cp.jobs {
			j.mu.Lock()
			res.Results[i] = json.RawMessage(j.result)
			j.mu.Unlock()
		}
		return res, nil
	case api.Terminal(st.State):
		return nil, &api.Error{Code: api.CodeJobFailed, Message: fmt.Sprintf("campaign %s %s: %s", cp.id, st.State, st.Error), HTTPStatus: http.StatusUnprocessableEntity}
	default:
		return nil, &api.Error{Code: api.CodeConflict, Message: fmt.Sprintf("campaign %s is %s; poll the status endpoint", cp.id, st.State), HTTPStatus: http.StatusConflict}
	}
}

// Cancel stops a campaign: unstarted jobs stay unrun, in-flight worker jobs
// are cancelled, and the campaign settles as cancelled (or whatever terminal
// state it had already reached).
func (c *Coordinator) Cancel(id string) (*api.CampaignStatus, error) {
	cp, ok := c.lookup(id)
	if !ok {
		return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("unknown campaign %q", id), HTTPStatus: http.StatusNotFound}
	}
	cp.cancel()
	st := cp.snapshot()
	return &st, nil
}

// Health reports the coordinator's liveness document: campaign counts in the
// scheduler-counter positions, plus the fleet and cache views.
func (c *Coordinator) Health() api.Health {
	c.mu.Lock()
	status := "ok"
	if c.closed {
		status = "draining"
	}
	var queued, running, finished int
	for _, cp := range c.order {
		switch cp.snapshot().State {
		case api.StateRunning:
			running++
		case api.StateQueued:
			queued++
		default:
			finished++
		}
	}
	c.mu.Unlock()
	now := time.Now()
	h := api.Health{
		Status:   status,
		Version:  c.caps.Version,
		Queued:   queued,
		Running:  running,
		Finished: finished,
	}
	for _, w := range c.workers {
		h.Workers = append(h.Workers, w.view(now))
	}
	stats := c.cache.stats()
	h.Cache = &stats
	return h
}
