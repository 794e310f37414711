package campaign

import (
	"reflect"
	"testing"
	"time"

	"c3d/pkg/c3d/api"
)

func TestTokenBucket(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newTokenBucket(10, 5) // 10/s, burst 5, starts full
	b.now = func() time.Time { return clock }

	if !b.take(5) {
		t.Fatal("full bucket refused its burst")
	}
	if b.take(1) {
		t.Fatal("empty bucket granted a token")
	}
	clock = clock.Add(300 * time.Millisecond) // +3 tokens
	if !b.take(3) {
		t.Fatal("refill not credited")
	}
	if b.take(1) {
		t.Fatal("over-refill: bucket granted more than elapsed time bought")
	}
	clock = clock.Add(time.Hour) // refill far beyond burst
	if b.take(6) {
		t.Fatal("bucket exceeded its burst capacity")
	}
	if !b.take(5) {
		t.Fatal("bucket should cap at burst, not below")
	}
}

func TestCacheKeyNormalisation(t *testing.T) {
	base := simSpec(7)
	k1, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// The disk tier survives restarts and is keyed by this address, so the
	// address of a fixed spec must not drift between builds.
	if want := "12d9282bb4535f915ef8dfea2c3e9b24bee51253ad15339eba6392a3f0e65513"; k1 != want {
		t.Errorf("CacheKey(simSpec(7)) = %s, want %s", k1, want)
	}

	// Parallelism does not change result bytes, so it must not change the
	// content address.
	tuned := base
	tuned.Params.Parallelism = 8
	if k2, _ := CacheKey(tuned); k2 != k1 {
		t.Error("host-tuning fields changed the cache key")
	}

	// Everything result-affecting must change it.
	for name, mutate := range map[string]func(*api.JobSpec){
		"seed":     func(s *api.JobSpec) { s.Params.Seed = 8 },
		"accesses": func(s *api.JobSpec) { s.Params.Accesses = 501 },
		"kind":     func(s *api.JobSpec) { s.Kind = api.KindExperiment },
		"workload": func(s *api.JobSpec) { s.Workload = "canneal" },
		"design":   func(s *api.JobSpec) { s.Params.Design = "base" },
		"sampling": func(s *api.JobSpec) { s.Params.Sampling = "stretch=1400,warm=60,win=60" },
	} {
		other := base
		mutate(&other)
		if k2, _ := CacheKey(other); k2 == k1 {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, "", nil)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // a is now most recent
		t.Fatal("miss on fresh entry")
	}
	c.put("c", []byte("C")) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if got, ok := c.get("a"); !ok || string(got) != "A" {
		t.Error("recently-used entry was evicted")
	}
	st := c.stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 entries, 2 hits, 1 miss", st)
	}
}

func TestPolicyRegistry(t *testing.T) {
	if names := Policies(); !reflect.DeepEqual(names, []string{"round-robin", "least-loaded"}) {
		t.Fatalf("Policies() = %q", names)
	}
	const unknown = `campaign: unknown routing policy "carrier-pigeon" (have [round-robin least-loaded])`
	if _, err := LookupPolicy("carrier-pigeon"); err == nil || err.Error() != unknown {
		t.Errorf("LookupPolicy(carrier-pigeon) error = %v, want %s", err, unknown)
	}
	spec, err := LookupPolicy(DefaultPolicy)
	if err != nil || spec.New() == nil {
		t.Fatalf("default policy unusable: %v", err)
	}
}

// TestPolicyTableInvariants checks every entry of the routing-policy table is
// well-formed: a non-empty unique name and a factory that builds a policy.
func TestPolicyTableInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range policies {
		if spec.Name == "" {
			t.Errorf("policy table entry with an empty name: %+v", spec)
		}
		if seen[spec.Name] {
			t.Errorf("policy %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		if spec.New == nil || spec.New() == nil {
			t.Errorf("policy %q has no usable factory", spec.Name)
		}
	}
}

func views(indexes ...int) []WorkerView {
	out := make([]WorkerView, len(indexes))
	for i, idx := range indexes {
		out[i] = WorkerView{Index: idx}
	}
	return out
}

func TestRoundRobinPolicy(t *testing.T) {
	p := (&roundRobin{})
	full := views(0, 1, 2)
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, full[p.Pick(full)].Index)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle = %v, want %v", got, want)
		}
	}
	// Worker 1 benched: the cursor keeps advancing over the fleet index
	// space, so 1 simply drops out of the rotation.
	holed := views(0, 2)
	got = got[:0]
	for i := 0; i < 4; i++ {
		got = append(got, holed[p.Pick(holed)].Index)
	}
	want = []int{0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle with hole = %v, want %v", got, want)
		}
	}
	if p.Pick(nil) != -1 {
		t.Error("round-robin picked from an empty fleet")
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	p := leastLoaded{}
	vs := views(0, 1, 2)
	vs[0].Queued = 2
	vs[1].Running = 1
	vs[2].Inflight = 3
	if i := p.Pick(vs); vs[i].Index != 1 {
		t.Errorf("picked index %d, want the least-loaded worker 1", vs[i].Index)
	}
	// Ties break to the lowest fleet index for stability.
	vs[1].Running = 2
	vs[0].Queued = 2
	vs[2].Inflight = 2
	if i := p.Pick(vs); vs[i].Index != 0 {
		t.Errorf("tie broke to index %d, want 0", vs[i].Index)
	}
	if p.Pick(nil) != -1 {
		t.Error("least-loaded picked from an empty fleet")
	}
}
