// Package api defines the wire contract of the c3dd job service and the
// campaign coordinator: every JSON document that crosses the HTTP boundary —
// job specifications, statuses, progress event lines, error envelopes,
// capability documents and campaign shapes — plus a Go Client that speaks
// them.
//
// These types were promoted out of internal/server so that servers and
// clients share one declaration instead of hand-rolling JSON: the daemon
// (internal/server), the campaign coordinator (internal/campaign), the SDK
// (pkg/c3d, whose Params is a defined type over api.Params) and external
// programs all import this package. The JSON field names are frozen — a
// compat test pins every one — so changing a tag here is a wire-format break
// and must be treated as such.
//
// Wire change (2026-08): Params gained the optional "spec" field carrying a
// workload-spec document verbatim. Old servers reject unknown fields, so a
// client sending "spec" to a pre-spec daemon gets a clean 400 invalid_spec
// rather than a silently ignored knob; old clients never emit the field and
// are unaffected. Additive, backwards compatible.
//
// Wire change (2026-08): Params gained the optional "sampling" field carrying
// a SMARTS-style sampling schedule ("stretch=N,warm=N,win=N[,seed=S]").
// Sampling parameters are semantic — two specs differing only in sampling
// produce different result bytes — so campaign result caches key on the field
// like any other. As with "spec", old daemons reject it with a clean 400
// invalid_spec (DisallowUnknownFields), old clients never send it. Additive,
// backwards compatible.
//
// Wire change (2026-10): Params lost "stream". Simulations always stream
// and campaigns choose per trace, by size, between replaying a memoised
// trace and streaming it, so the field selected nothing a client could
// observe. The daemon decodes with DisallowUnknownFields: an old client that
// still sends "stream" gets a 400 invalid_spec naming the field, never a
// silently ignored knob. Clients that never set it are unaffected.
//
// The package depends only on the standard library: importing it pulls in no
// simulator code.
package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// Params is the flat, serialisable form of a session configuration: the
// shape CLI flags parse into and the job API accepts as JSON. pkg/c3d
// defines its Params type over this struct, so the SDK and the wire agree on
// field names by construction.
type Params struct {
	// Quick switches experiment campaigns to the reduced configuration.
	Quick bool `json:"quick,omitempty"`
	// Design names the coherence design for simulations ("c3d", ...).
	Design string `json:"design,omitempty"`
	// Policy pins the NUMA placement policy ("INT", "FT1", "FT2"); empty
	// means the workload's preferred policy.
	Policy string `json:"policy,omitempty"`
	// Topology names the fabric topology ("p2p", "ring", "mesh", "full");
	// empty means the socket count's default.
	Topology string `json:"topology,omitempty"`
	// Sockets, Threads, Accesses and Scale override the configuration's
	// machine and workload shape (0 = default).
	Sockets  int `json:"sockets,omitempty"`
	Threads  int `json:"threads,omitempty"`
	Accesses int `json:"accesses,omitempty"`
	Scale    int `json:"scale,omitempty"`
	// Warmup overrides the warm-up fraction (nil = default 0.25).
	Warmup *float64 `json:"warmup,omitempty"`
	// Workloads restricts experiment campaigns to a subset.
	Workloads []string `json:"workloads,omitempty"`
	// Parallelism bounds concurrent simulations / checker workers
	// (0 = GOMAXPROCS; results identical at any value).
	Parallelism int `json:"parallel,omitempty"`
	// Seed offsets workload generation.
	Seed int64 `json:"seed,omitempty"`
	// BroadcastFilter enables the §IV-D private-page broadcast filter.
	BroadcastFilter bool `json:"broadcast_filter,omitempty"`
	// Spec carries a workload-spec document (the internal/wspec JSON DSL)
	// verbatim. The compiled workload resolves wherever a workload name is
	// expected on the server: a simulate job with an empty workload runs it,
	// and experiment campaigns use it in place of the registry suite. The
	// document travels by value, so a worker needs no filesystem access and
	// the coordinator's content-addressed result cache keys on the full spec
	// text automatically.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Sampling selects SMARTS-style sampled simulation under the given
	// schedule spec ("stretch=N,warm=N,win=N[,seed=S]"); empty means full
	// detailed simulation. Sampled results carry per-metric 95% confidence
	// half-widths and remain byte-identical across parallelism for a fixed
	// (config, seed, sampling) triple.
	Sampling string `json:"sampling,omitempty"`
}

// Job kinds accepted by POST /v1/jobs.
const (
	KindExperiment = "experiment"
	KindSimulate   = "simulate"
	KindVerify     = "verify"
)

// JobSpec is the submission body of POST /v1/jobs.
type JobSpec struct {
	// Kind selects what to run: "experiment", "simulate" or "verify".
	Kind string `json:"kind"`
	// Params configures the session exactly as the CLI flags do.
	Params Params `json:"params"`
	// Experiments lists experiment ids for kind "experiment" (empty or
	// ["all"] = the full set).
	Experiments []string `json:"experiments,omitempty"`
	// Workload names the workload for kind "simulate".
	Workload string `json:"workload,omitempty"`
	// Verify parameterises kind "verify".
	Verify VerifySpec `json:"verify,omitempty"`
}

// VerifySpec bounds a protocol verification (§IV-C); c3d.VerifyRequest is
// a defined type over it. Zero fields mean the defaults; negative ones are
// rejected.
type VerifySpec struct {
	// Sockets is the largest socket count to verify (default 3; the
	// 2-socket configuration is always included).
	Sockets int `json:"sockets,omitempty"`
	// LoadsPerCore and StoresPerCore bound each core's operations
	// (default 1 each).
	LoadsPerCore  int `json:"loads,omitempty"`
	StoresPerCore int `json:"stores,omitempty"`
	// MaxStates truncates the search (0 = exhaustive).
	MaxStates int `json:"max_states,omitempty"`
	// BaseOnly skips the c3d-full-dir protocol variant.
	BaseOnly bool `json:"base_only,omitempty"`
}

// Job and campaign lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether a job or campaign state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the status document of GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    string    `json:"state"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Events   int       `json:"events"`
}

// JobPage is the bounded response of GET /v1/jobs: one page of statuses in
// insertion order plus enough bookkeeping to fetch the next page.
type JobPage struct {
	Jobs []JobStatus `json:"jobs"`
	// Total is the number of retained jobs, Offset the index of the first
	// entry of this page within them.
	Total  int `json:"total"`
	Offset int `json:"offset"`
}

// SubmitResponse is the body of a successful POST /v1/jobs or
// POST /v1/campaigns.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// Event is one line of the GET /v1/jobs/{id}/events JSON-lines stream: a
// structured progress notification, or a job_state marker (Kind "job_state",
// State set). The final line of a stream is always the terminal job_state
// marker.
type Event struct {
	Kind      string  `json:"kind"`
	State     string  `json:"state,omitempty"`
	Job       string  `json:"job,omitempty"`
	Done      int     `json:"done,omitempty"`
	Total     int     `json:"total,omitempty"`
	States    int     `json:"states,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// EventJobState is the Kind of lifecycle marker lines in an event stream.
const EventJobState = "job_state"

// Machine-readable error codes carried by the error envelope. Clients switch
// on these, never on message text.
const (
	// CodeInvalidSpec: the request body failed validation (HTTP 400).
	CodeInvalidSpec = "invalid_spec"
	// CodeNotFound: no such job or campaign (HTTP 404).
	CodeNotFound = "not_found"
	// CodeQueueFull: the admission queue is at capacity (HTTP 503).
	CodeQueueFull = "queue_full"
	// CodeRateLimited: token-bucket admission rejected the request (HTTP 429).
	CodeRateLimited = "rate_limited"
	// CodeConflict: the resource is not in a state that allows the request,
	// e.g. fetching the result of an unfinished job (HTTP 409).
	CodeConflict = "conflict"
	// CodeJobFailed: the job finished unsuccessfully (HTTP 422).
	CodeJobFailed = "job_failed"
	// CodeShuttingDown: the server is draining and accepts no new work
	// (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeInternal: an unexpected server-side failure (HTTP 5xx).
	CodeInternal = "internal"
)

// Error is the uniform error body of every non-2xx API response:
//
//	{"error": {"code": "not_found", "message": "unknown job \"job-000042\""}}
//
// It implements the error interface, so api.Client surfaces it directly; use
// errors.As plus the Code to branch on failure classes.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// HTTPStatus is the response's status code. It is not part of the wire
	// body (the HTTP layer already carries it) — the client fills it in.
	HTTPStatus int `json:"-"`
}

func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the top-level shape wrapping Error on the wire.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// ExperimentInfo describes one runnable experiment in a capabilities
// document.
type ExperimentInfo struct {
	ID          string `json:"id"`
	Paper       string `json:"paper"`
	Description string `json:"description"`
}

// Capabilities is the response of GET /v1/capabilities: everything a remote
// client needs to validate a JobSpec eagerly — before submission — the way
// the SDK's options validate locally.
type Capabilities struct {
	Version     string           `json:"version"`
	Designs     []string         `json:"designs"`
	Topologies  []string         `json:"topologies"`
	Experiments []ExperimentInfo `json:"experiments"`
	Workloads   []string         `json:"workloads"`
}

// SupportsSpec checks a job spec against the capability lists: unknown
// experiment ids, workloads, designs and topologies are reported before any
// network round trip that would carry the doomed spec. It is a name-level
// check — numeric-range validation still happens server-side.
func (c *Capabilities) SupportsSpec(spec JobSpec) error {
	if spec.Params.Design != "" && !contains(c.Designs, spec.Params.Design) {
		return fmt.Errorf("remote does not support design %q (has %v)", spec.Params.Design, c.Designs)
	}
	if spec.Params.Topology != "" && !contains(c.Topologies, spec.Params.Topology) {
		return fmt.Errorf("remote does not support topology %q (has %v)", spec.Params.Topology, c.Topologies)
	}
	// A workload-spec document defines workloads the server compiles at
	// submission time, so name-level workload checks cannot apply: the
	// server-side validation is authoritative for spec jobs.
	hasSpec := len(spec.Params.Spec) > 0
	if !hasSpec {
		for _, w := range spec.Params.Workloads {
			if !contains(c.Workloads, w) {
				return fmt.Errorf("remote does not support workload %q", w)
			}
		}
	}
	switch spec.Kind {
	case KindExperiment:
		for _, id := range spec.Experiments {
			if id == "all" {
				continue
			}
			if !containsExperiment(c.Experiments, id) {
				return fmt.Errorf("remote does not support experiment %q", id)
			}
		}
	case KindSimulate:
		if !hasSpec && spec.Workload != "" && !contains(c.Workloads, spec.Workload) {
			return fmt.Errorf("remote does not support workload %q", spec.Workload)
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func containsExperiment(list []ExperimentInfo, id string) bool {
	for _, e := range list {
		if e.ID == id {
			return true
		}
	}
	return false
}

// Health is the response of GET /healthz on a worker daemon or a
// coordinator. Worker fields are always present; the coordinator adds its
// fleet and cache views.
type Health struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Finished int    `json:"finished"`

	// Coordinator-only fields.
	Workers []WorkerHealth `json:"workers,omitempty"`
	Cache   *CacheStats    `json:"cache,omitempty"`
}

// WorkerHealth is a coordinator's view of one worker daemon.
type WorkerHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Assigned counts jobs the coordinator dispatched to this worker (over
	// its lifetime), Inflight those currently dispatched and unfinished.
	Assigned int64 `json:"assigned"`
	Inflight int64 `json:"inflight"`
}

// CacheStats reports the coordinator's content-addressed result cache: a hit
// means a job's result was served from cache instead of being re-run
// anywhere in the fleet.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// CampaignSpec is the submission body of POST /v1/campaigns: an ordered list
// of job specs. Results are always assembled and served in this order,
// regardless of which worker finishes which job when.
type CampaignSpec struct {
	Jobs []JobSpec `json:"jobs"`
}

// CampaignJob is the per-job view inside a CampaignStatus.
type CampaignJob struct {
	// Index is the job's position in the submitted CampaignSpec.
	Index int    `json:"index"`
	State string `json:"state"`
	// Worker is the URL of the worker that produced the result (empty for
	// cache hits and unscheduled jobs).
	Worker string `json:"worker,omitempty"`
	// CacheHit reports the result was served from the coordinator's
	// content-addressed cache without dispatching the job.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Attempts counts dispatch attempts (reassignments after worker
	// failures and hedged re-dispatches increment it; a cache hit leaves
	// it 0).
	Attempts int `json:"attempts,omitempty"`
	// Hedges counts hedged re-dispatches: straggler jobs speculatively
	// re-sent to a second worker, first result winning. Safe because
	// results are content-addressed and bit-deterministic.
	Hedges int    `json:"hedges,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CampaignStatus is the status document of GET /v1/campaigns/{id}.
type CampaignStatus struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Error     string        `json:"error,omitempty"`
	Done      int           `json:"done"`
	Total     int           `json:"total"`
	CacheHits int           `json:"cache_hits"`
	Jobs      []CampaignJob `json:"jobs"`
}

// CampaignPage is the bounded response of GET /v1/campaigns.
type CampaignPage struct {
	Campaigns []CampaignStatus `json:"campaigns"`
	Total     int              `json:"total"`
	Offset    int              `json:"offset"`
}

// CampaignResults is the response of GET /v1/campaigns/{id}/results: one raw
// result document per job, in submission order. Each element is the JSON
// value the worker's result endpoint served (or the cached copy of it) with
// surrounding whitespace trimmed — json.RawMessage carries value bytes, not
// presentation newlines — so clients can reassemble campaign output
// byte-identically to a local run.
type CampaignResults struct {
	ID      string            `json:"id"`
	Results []json.RawMessage `json:"results"`
}
