package campaign

import "fmt"

// WorkerView is the routing-time snapshot of one healthy worker a Policy
// chooses from. Index is the worker's position in the coordinator's
// configured fleet; Queued/Running are the worker's own scheduler counters
// from its last /healthz probe (refreshed before Pick when the policy
// declares NeedsLoad); Inflight is the coordinator's own count of jobs
// dispatched to it and not yet finished.
type WorkerView struct {
	Index    int
	Queued   int
	Running  int
	Inflight int64
}

// Load is the worker's total outstanding work as seen by the coordinator:
// its own queue plus what this coordinator has dispatched and not yet seen
// finish. Counting Inflight matters when several dispatches race between
// healthz refreshes — without it, every racer would pick the same "idle"
// worker.
func (v WorkerView) Load() int64 {
	return int64(v.Queued) + int64(v.Running) + v.Inflight
}

// Policy assigns jobs to workers. Pick returns the index (into views) of the
// chosen worker, or -1 when no worker is acceptable; views only contains
// healthy workers. Implementations may keep state (the round-robin cursor) —
// the coordinator serialises Pick calls, so no internal locking is needed.
//
// Routing never affects results: campaign output is assembled in job order
// and every job is deterministic, so a policy is purely a performance
// choice. The fleet tests pin byte-identical campaign results across every
// policy at worker counts 1, 2 and 4.
type Policy interface {
	Pick(views []WorkerView) int
}

// PolicySpec describes a routing policy: its name, whether the coordinator
// must refresh worker /healthz counters before each Pick, and the factory
// producing a fresh (stateful) instance per coordinator.
type PolicySpec struct {
	Name string
	// NeedsLoad asks the coordinator to probe worker /healthz before Pick,
	// so Queued/Running in the views are fresh rather than zero.
	NeedsLoad bool
	// New builds a policy instance. Must not return nil.
	New func() Policy
}

// policies is the routing-policy table; its order is the listing order of
// Policies().
var policies = []PolicySpec{
	// Cycle through healthy workers in fleet order.
	{Name: DefaultPolicy, New: func() Policy { return &roundRobin{} }},
	// Pick the healthy worker with the fewest queued+running+in-flight jobs
	// (via /healthz).
	{Name: "least-loaded", NeedsLoad: true, New: func() Policy { return leastLoaded{} }},
}

// DefaultPolicy is the routing policy used when none is configured.
const DefaultPolicy = "round-robin"

// Policies lists the policy names in table order.
func Policies() []string {
	out := make([]string, len(policies))
	for i, spec := range policies {
		out[i] = spec.Name
	}
	return out
}

// LookupPolicy returns a policy spec by name.
func LookupPolicy(name string) (PolicySpec, error) {
	for _, spec := range policies {
		if spec.Name == name {
			return spec, nil
		}
	}
	return PolicySpec{}, fmt.Errorf("campaign: unknown routing policy %q (have %v)", name, Policies())
}

// roundRobin cycles a cursor over the fleet, skipping unhealthy workers by
// construction (views are pre-filtered). The cursor advances over the fleet
// index space, not the filtered slice, so a worker rejoining after a
// cooldown slots back into its old turn.
type roundRobin struct {
	next int
}

func (r *roundRobin) Pick(views []WorkerView) int {
	if len(views) == 0 {
		return -1
	}
	// Choose the first candidate whose fleet index is >= the cursor,
	// wrapping; then advance the cursor past it.
	best := -1
	for i, v := range views {
		if v.Index >= r.next {
			best = i
			break
		}
	}
	if best == -1 {
		best = 0 // wrap
	}
	r.next = views[best].Index + 1
	return best
}

// leastLoaded picks the worker with the smallest Load; ties break to the
// lowest fleet index so the choice is stable.
type leastLoaded struct{}

func (leastLoaded) Pick(views []WorkerView) int {
	best := -1
	var bestLoad int64
	for i, v := range views {
		load := v.Load()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}
