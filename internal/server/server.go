// Package server is the job-service core behind cmd/c3dd: an HTTP/JSON API
// that accepts simulation, experiment-campaign and verification jobs,
// schedules them on a bounded worker pool, streams structured progress as
// JSON lines, and serves deterministic results.
//
// Every job runs through pkg/c3d — the same Session facade the CLIs use — so
// a server-run experiment's result bytes are identical to `c3dexp -json`
// output for the same parameters, at any parallelism, which the test suite
// and the CI daemon-smoke gate verify with byte comparisons. Each simulation
// builds its machine, runs one trace and drops it, so a long-lived daemon
// holds no machines between jobs.
//
// The wire contract — job specs, statuses, event lines, the error envelope —
// lives in pkg/c3d/api, not here: the types were promoted out of this
// package so the daemon, the campaign coordinator (internal/campaign) and
// every client share one declaration. This package only implements the
// behaviour behind those shapes.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// Config parameterises a Server.
type Config struct {
	// MaxConcurrent bounds jobs running at once (default 1: simulations are
	// internally parallel already, so one job usually saturates the host;
	// raise it to overlap small jobs).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting to run (default 256). Submissions
	// beyond it are rejected with 503 instead of queueing unboundedly.
	QueueDepth int
	// MaxJobs bounds retained finished jobs (default 1024): the oldest
	// finished jobs are evicted first, so a long-lived daemon's job table
	// does not grow without bound.
	MaxJobs int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// List pagination bounds for GET /v1/jobs.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// Handler returns the daemon's HTTP API:
//
//	GET    /healthz              liveness + version + scheduler counters
//	GET    /v1/capabilities      designs, topologies, experiments, workloads, version
//	POST   /v1/jobs              submit an api.JobSpec  -> api.SubmitResponse
//	GET    /v1/jobs              list job statuses (paginated: ?offset=&limit=)
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/events  progress stream as JSON lines (replays, then follows)
//	GET    /v1/jobs/{id}/result  the finished job's result document
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//
// Every error response is the uniform api.ErrorEnvelope with a
// machine-readable code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running, finished := s.counts()
	status := "ok"
	if s.isClosed() {
		// Draining: running jobs are finishing, new submissions answer 503.
		status = "draining"
	}
	writeJSON(w, http.StatusOK, api.Health{
		Status:   status,
		Version:  c3d.Version(),
		Queued:   queued,
		Running:  running,
		Finished: finished,
	})
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c3d.CurrentCapabilities())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidSpec, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	if err := c3d.ValidateJobSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidSpec, err)
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		code := api.CodeQueueFull
		if s.isClosed() {
			code = api.CodeShuttingDown
		}
		writeError(w, http.StatusServiceUnavailable, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: j.id, State: j.state()})
}

// handleList serves one bounded page of job statuses in insertion order.
// offset/limit are clamped, never rejected: a list request is always
// answerable.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	offset := queryInt(r, "offset", 0)
	limit := queryInt(r, "limit", defaultListLimit)
	if limit <= 0 {
		limit = defaultListLimit
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	if offset < 0 {
		offset = 0
	}
	all := s.statuses()
	total := len(all)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	page := all[offset:end]
	if page == nil {
		page = []api.JobStatus{}
	}
	writeJSON(w, http.StatusOK, api.JobPage{Jobs: page, Total: total, Offset: offset})
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.statusDoc())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	state, result, errMsg := j.outcome()
	switch {
	case state == api.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case state == api.StateFailed && len(result) > 0:
		// A failed job can still carry a result document — a verification
		// that found violations stores its reports, which is how clients see
		// exactly which invariant broke. Serve it with the job's error in a
		// header so failure stays distinguishable from success.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-C3D-Job-Error", errMsg)
		//c3dlint:allow errenvelope(body is the verification result document, not an error; the job error travels in the X-C3D-Job-Error header)
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write(result)
	case api.Terminal(state):
		writeError(w, http.StatusConflict, api.CodeConflict, fmt.Errorf("job %s %s: %s", j.id, state, errMsg))
	default:
		writeError(w, http.StatusConflict, api.CodeConflict, fmt.Errorf("job %s is %s; poll the status or events endpoint", j.id, state))
	}
}

// handleEvents streams the job's progress as JSON lines: everything recorded
// so far immediately, then live events until the job reaches a terminal
// state or the client disconnects. The final line is always the terminal
// status marker.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		lines, state, notify := j.eventsSince(next)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		next += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if api.Terminal(state) {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, api.SubmitResponse{ID: j.id, State: j.state()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the uniform error envelope every non-2xx response uses:
// {"error": {"code": ..., "message": ...}}. Clients branch on the code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, api.ErrorEnvelope{Error: &api.Error{Code: code, Message: err.Error()}})
}
