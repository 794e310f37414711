package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// Server owns the job table and the worker pool. Build one with New, wire
// Handler into an http.Server, and Close it on shutdown.
type Server struct {
	cfg Config

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for listing and bounded retention
	nextID int
	closed bool
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
	}
	s.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	return s
}

// Close cancels every running job, stops the workers and waits for them.
// Submissions racing with Close are rejected, never lost in a closed
// channel: sends happen only under s.mu with closed still false, and the
// channel is closed only after closed is set under the same lock.
func (s *Server) Close() {
	s.stop()
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.queue)
	}
	s.wg.Wait()
}

// Drain gracefully stops the server: new submissions are rejected
// immediately (503 shutting_down), jobs already queued or running finish
// normally, and Drain returns when the workers have emptied the queue — or
// when ctx expires, in which case it falls back to Close's hard cancel.
// Either way the server is fully stopped on return.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// submit registers and enqueues a job. The enqueue attempt and the
// registration share one critical section: a full queue rejects before
// anything is registered, and no send can race Close's channel close.
func (s *Server) submit(spec api.JobSpec) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server shutting down")
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), spec)
	select {
	case s.queue <- j:
	default:
		return nil, fmt.Errorf("job queue full (%d pending)", s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		if excess > 0 && api.Terminal(s.jobs[id].state()) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) statuses() []api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusDoc())
	}
	return out
}

func (s *Server) counts() (queued, running, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch j.state() {
		case api.StateQueued:
			queued++
		case api.StateRunning:
			running++
		default:
			finished++
		}
	}
	return
}

// run executes one job on the calling worker goroutine.
func (s *Server) run(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.begin(cancel) {
		// Cancelled while still queued.
		return
	}

	sess, err := c3d.Params(j.spec.Params).Session()
	if err != nil {
		j.finish(nil, err)
		return
	}
	sess = sess.WithProgress(j.recordEvent)
	var result []byte
	switch j.spec.Kind {
	case api.KindExperiment:
		var results []c3d.ExperimentResult
		results, err = sess.Sweep(ctx, j.spec.Experiments...)
		if err == nil {
			// Render exactly the bytes `c3dexp -json` prints: one shared
			// writer, so server and CLI results are comparable with cmp.
			var buf bytes.Buffer
			if err = c3d.WriteResultsJSON(&buf, results); err == nil {
				result = buf.Bytes()
			}
		}
	case api.KindSimulate:
		var res *c3d.SimulateResult
		res, err = sess.Simulate(ctx, j.spec.Workload)
		if err == nil {
			result, err = json.MarshalIndent(res, "", "  ")
			result = append(result, '\n')
		}
	case api.KindVerify:
		var res *c3d.VerifyResult
		res, err = sess.Verify(ctx, c3d.VerifyRequest(j.spec.Verify))
		if err == nil {
			if !res.Passed() {
				err = fmt.Errorf("verification found violations")
			}
			var buf bytes.Buffer
			if werr := c3d.WriteReportsJSON(&buf, res.Reports); werr == nil {
				// Reports are kept even when verification fails: the result
				// document is how clients see which invariant broke.
				result = buf.Bytes()
			}
		}
	default:
		err = fmt.Errorf("unknown job kind %q", j.spec.Kind)
	}
	j.finish(result, err)
}

// job is one scheduled unit of work and its observable history.
type job struct {
	id      string
	spec    api.JobSpec
	created time.Time

	mu        sync.Mutex
	st        string
	err       string
	result    []byte
	started   time.Time
	finished  time.Time
	events    [][]byte
	notify    chan struct{}
	cancel    context.CancelFunc
	cancelled bool // cancel requested (possibly before the job began)
}

func newJob(id string, spec api.JobSpec) *job {
	return &job{
		id:      id,
		spec:    spec,
		created: time.Now(),
		st:      api.StateQueued,
		notify:  make(chan struct{}),
	}
}

func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *job) statusDoc() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{
		ID:       j.id,
		Kind:     j.spec.Kind,
		State:    j.st,
		Error:    j.err,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Events:   len(j.events),
	}
}

func (j *job) outcome() (state string, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st, j.result, j.err
}

// begin transitions queued -> running; it reports false when the job was
// cancelled before starting (requestCancel already moved it to the terminal
// state).
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.st = api.StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.appendEventLocked(statusLine(j.st))
	return true
}

func (j *job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.result = result
	switch {
	case err == nil:
		j.st = api.StateDone
	case errors.Is(err, context.Canceled):
		j.st = api.StateCancelled
		j.err = err.Error()
	default:
		j.st = api.StateFailed
		j.err = err.Error()
	}
	j.appendEventLocked(statusLine(j.st))
}

// requestCancel flags the job, cancels its context when running, and flips a
// still-queued job to cancelled immediately — clients must not have to wait
// for a worker to dequeue it to see the cancel took effect.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if api.Terminal(j.st) {
		return
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
		return
	}
	j.st = api.StateCancelled
	j.err = context.Canceled.Error()
	j.finished = time.Now()
	j.appendEventLocked(statusLine(j.st))
}

// statusLine serialises a lifecycle marker in the api.Event wire shape.
func statusLine(state string) []byte {
	line, _ := json.Marshal(api.Event{Kind: api.EventJobState, State: state})
	return append(line, '\n')
}

// recordEvent is the session progress hook: it serialises the event once in
// the api.Event wire shape and wakes every streaming subscriber.
func (j *job) recordEvent(e c3d.Event) {
	we := api.Event{
		Kind:      e.Kind.String(),
		Job:       e.Job,
		Done:      e.Done,
		Total:     e.Total,
		States:    e.States,
		ElapsedMs: float64(e.Elapsed.Microseconds()) / 1000,
	}
	if e.Err != nil {
		we.Err = e.Err.Error()
	}
	line, err := json.Marshal(we)
	if err != nil {
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	j.appendEventLocked(line)
	j.mu.Unlock()
}

// appendEventLocked stores a serialised line and signals subscribers.
// Callers hold j.mu.
func (j *job) appendEventLocked(line []byte) {
	j.events = append(j.events, line)
	close(j.notify)
	j.notify = make(chan struct{})
}

// eventsSince returns the serialised events from index on, the job's current
// state, and a channel that is closed on the next append — the streaming
// handler's replay-then-follow primitive.
func (j *job) eventsSince(i int) ([][]byte, string, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i > len(j.events) {
		i = len(j.events)
	}
	return j.events[i:], j.st, j.notify
}
