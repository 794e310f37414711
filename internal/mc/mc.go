// Package mc is a small explicit-state model checker in the spirit of Murϕ,
// used to verify the C3D coherence protocol the way §IV-C of the paper does:
// exhaustive breadth-first enumeration of the reachable states of a
// message-level protocol model, checking safety invariants in every state and
// absence of deadlock (every state without successors must be quiescent).
//
// The checker is generic: it explores any Model whose states are encoded as
// canonical strings. The C3D protocol model lives in internal/core.
//
// The search engine is a level-synchronized parallel BFS: each frontier level
// is explored by a pool of workers against a sharded visited set, per-worker
// frontier buffers are merged between levels, and every observable output is
// deterministic. Because BFS levels are sets (the visited set admits each
// state exactly once, no matter which worker wins the race), the counters in
// a Report — states, transitions, depth, quiescent states — are bit-identical
// at any Options.Parallelism. Violations are reported deterministically too:
// the search finishes the violating level and reports the violation of
// minimal depth, breaking ties by the lexicographically smallest canonical
// state, rather than "whichever worker got there first".
//
// Visited states are interned into per-shard byte arenas instead of being
// kept as individual map-key strings, and models can implement AppendModel
// to let workers reuse their successor buffers, so steady-state exploration
// allocates roughly one string per transition (the successor encoding) and
// nothing else.
package mc

import (
	"encoding/json"
	"fmt"
	"time"
)

// Model is a finite-state transition system with invariants. All methods must
// be safe for concurrent use: the checker calls them from multiple workers
// when Options.Parallelism exceeds one.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Initial returns the initial states.
	Initial() []string
	// Successors returns every state reachable in one step from state. It
	// returns an error if the transition itself violates a property (for
	// example a load observing a stale value).
	Successors(state string) ([]string, error)
	// Check verifies state invariants, returning an error describing the
	// first violation.
	Check(state string) error
	// Quiescent reports whether the state has no outstanding work. States
	// without successors must be quiescent; otherwise the system deadlocked.
	Quiescent(state string) bool
}

// AppendModel is optionally implemented by models that can enumerate
// successors into a caller-provided buffer. The checker calls it with each
// worker's private buffer (successors of the previous state are no longer
// referenced), so a model that also reuses its own decode/encode scratch —
// core.ProtocolModel does — makes exploration allocate only the successor
// strings themselves. Models that do not implement it are explored through
// Successors.
type AppendModel interface {
	Model
	// SuccessorsAppend appends every state reachable in one step from state
	// to buf and returns the extended buffer, with the same error contract
	// as Successors.
	SuccessorsAppend(state string, buf []string) ([]string, error)
}

// StateFormatter is optionally implemented by models whose canonical state
// encoding is not human-readable (e.g. a binary layout). When a violation is
// reported, the checker uses it to render the offending state.
type StateFormatter interface {
	FormatState(state string) string
}

// DefaultProgressInterval is the Options.ProgressInterval used when none is
// set.
const DefaultProgressInterval = 100_000

// Options bound and parameterise the search. Parallelism affects wall-clock
// time only: every field of the resulting Report except Elapsed is
// bit-identical at any value.
type Options struct {
	// MaxStates aborts the search after this many distinct states
	// (0 = unlimited). When a frontier level would overflow the budget it is
	// trimmed to the lexicographically smallest states, so the explored
	// prefix is deterministic.
	MaxStates int
	// MaxDepth bounds the BFS depth (0 = unlimited).
	MaxDepth int
	// Parallelism is the number of workers exploring each frontier level
	// (<= 0 means GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, is called with the number of states explored so
	// far: once whenever the count crosses a multiple of ProgressInterval
	// (at a level boundary), and always once more when the search finishes.
	Progress func(states int)
	// ProgressInterval is the state-count interval between progress calls
	// (<= 0 means DefaultProgressInterval).
	ProgressInterval int
}

// Violation describes a property violation found during the search.
type Violation struct {
	// Kind is "invariant", "transition" or "deadlock".
	Kind string
	// State is the offending state, rendered through the model's
	// StateFormatter when it implements one (the canonical encoding
	// otherwise).
	State string
	// Depth is the BFS depth at which the state was found.
	Depth int
	// Err is the underlying error (nil for deadlocks).
	Err error
}

func (v Violation) String() string {
	if v.Err != nil {
		return fmt.Sprintf("%s violation at depth %d: %v", v.Kind, v.Depth, v.Err)
	}
	return fmt.Sprintf("%s at depth %d: %s", v.Kind, v.Depth, v.State)
}

// MarshalJSON renders the violation with its error as a string, so reports
// serialise losslessly (errors have no canonical JSON form).
func (v Violation) MarshalJSON() ([]byte, error) {
	msg := ""
	if v.Err != nil {
		msg = v.Err.Error()
	}
	return json.Marshal(struct {
		Kind  string `json:"kind"`
		State string `json:"state"`
		Depth int    `json:"depth"`
		Err   string `json:"err,omitempty"`
	}{v.Kind, v.State, v.Depth, msg})
}

// Report summarises a model-checking run. Every field except Elapsed is
// deterministic — identical across runs and parallelism levels — and Elapsed
// is excluded from the JSON form so serialised reports can be compared
// byte-for-byte (CI does exactly that).
type Report struct {
	Model           string      `json:"model"`
	StatesExplored  int         `json:"states_explored"`
	TransitionsSeen int         `json:"transitions_seen"`
	MaxDepthReached int         `json:"max_depth_reached"`
	QuiescentStates int         `json:"quiescent_states"`
	Violations      []Violation `json:"violations,omitempty"`
	Truncated       bool        `json:"truncated,omitempty"`
	// Interrupted is set when the search was aborted by context
	// cancellation; the counters above cover only the explored prefix and
	// are not deterministic.
	Interrupted bool          `json:"interrupted,omitempty"`
	Elapsed     time.Duration `json:"-"`
}

// OK reports whether the run completed without violations, without
// truncation and without being interrupted.
//
//c3dlint:allow unused(the verdict the model-checker tests assert on)
func (r Report) OK() bool { return len(r.Violations) == 0 && !r.Truncated && !r.Interrupted }

// Passed reports whether no violations were found (the search may still have
// been truncated by the options).
func (r Report) Passed() bool { return len(r.Violations) == 0 }

// String renders a one-paragraph summary.
func (r Report) String() string {
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	} else if r.Interrupted {
		status = "INTERRUPTED"
	} else if r.Truncated {
		status = "PASS (truncated)"
	}
	s := fmt.Sprintf("%s: %s — %d states, %d transitions, depth %d, %d terminal states, %v",
		r.Model, status, r.StatesExplored, r.TransitionsSeen, r.MaxDepthReached, r.QuiescentStates, r.Elapsed.Round(time.Millisecond))
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}
