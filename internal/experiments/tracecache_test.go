package experiments

import (
	"sync"
	"testing"

	"c3d/internal/trace"
	"c3d/internal/workload"
)

// cacheOpts generates a 2-thread streamcluster trace: 2 × accesses parallel
// records plus an init section of 1.5 × accesses, so 3.5 × accesses resident
// once materialised (350 records for 100 accesses).
func cacheOpts(accesses int) workload.Options {
	return workload.Options{Threads: 2, Scale: 512, AccessesPerThread: accesses}
}

// checkResident asserts the memo's record count is the sum of its entries'
// init and parallel records, within budget, and that the recency list and
// map agree.
func checkResident(t *testing.T, tc *traceCache) {
	t.Helper()
	sum := 0
	for k, e := range tc.traces {
		n := e.src.InitLen()
		for th := range e.src.Threads() {
			n += e.src.ThreadLen(th)
		}
		if e.records != n {
			t.Fatalf("entry %s counts %d records, its trace holds %d", k, e.records, n)
		}
		sum += n
	}
	if sum != tc.records || tc.records > tc.budget {
		t.Fatalf("resident records %d (entries sum to %d), budget %d", tc.records, sum, tc.budget)
	}
	if len(tc.order) != len(tc.traces) {
		t.Fatalf("order list (%d) and map (%d) diverged", len(tc.order), len(tc.traces))
	}
	for _, k := range tc.order {
		if _, ok := tc.traces[k]; !ok {
			t.Fatalf("order references evicted key %s", k)
		}
	}
}

// TestTraceCacheLRUEviction checks the cache keeps recently used traces and
// evicts the least recently used one — not the whole map — when full.
func TestTraceCacheLRUEviction(t *testing.T) {
	// 1100 records hold three of the ~355-record traces below, not four.
	tc := newTraceCache(1100)
	spec := workload.MustGet("streamcluster")

	// Fill: a(350 records) b(353) c(357), LRU order a, b, c.
	a, err := tc.get(spec, cacheOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.get(spec, cacheOpts(101)); err != nil {
		t.Fatal(err)
	}
	c, err := tc.get(spec, cacheOpts(102))
	if err != nil {
		t.Fatal(err)
	}

	// Touch a: LRU order becomes b, c, a.
	a2, err := tc.get(spec, cacheOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("hot trace was regenerated on a cache hit")
	}

	// Insert d: b (least recently used) must go; a, c, d stay.
	if _, err := tc.get(spec, cacheOpts(103)); err != nil {
		t.Fatal(err)
	}
	if len(tc.traces) != 3 {
		t.Fatalf("cache holds %d entries, want 3", len(tc.traces))
	}
	if a3, _ := tc.get(spec, cacheOpts(100)); a3 != a {
		t.Error("recently used trace a was evicted")
	}
	if c2, _ := tc.get(spec, cacheOpts(102)); c2 != c {
		t.Error("recently used trace c was evicted")
	}

	// b is gone: getting it again regenerates (a different pointer), and the
	// cache stays at its bound.
	b2, err := tc.get(spec, cacheOpts(101))
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.traces) != 3 {
		t.Fatalf("cache grew past its bound: %d entries", len(tc.traces))
	}
	if b3, _ := tc.get(spec, cacheOpts(101)); b3 != b2 {
		t.Error("regenerated trace not cached")
	}
}

// TestTraceCacheOrderConsistency checks the recency list and map never
// diverge across a mixed hit/miss/evict sequence.
func TestTraceCacheOrderConsistency(t *testing.T) {
	tc := newTraceCache(750) // two ~355-record traces
	spec := workload.MustGet("streamcluster")
	for _, accesses := range []int{100, 101, 100, 102, 103, 101, 100} {
		if _, err := tc.get(spec, cacheOpts(accesses)); err != nil {
			t.Fatal(err)
		}
		checkResident(t, tc)
	}
}

// TestTraceCacheRecordBudget checks eviction goes by records, not entries,
// and that a trace's records include its init section: one large trace makes
// room for two small ones, resident records never exceed the budget, and a
// trace over the whole budget is streamed, never materialised.
func TestTraceCacheRecordBudget(t *testing.T) {
	tc := newTraceCache(1750)
	spec := workload.MustGet("streamcluster")
	get := func(accesses int) trace.Source {
		t.Helper()
		src, err := tc.get(spec, cacheOpts(accesses))
		if err != nil {
			t.Fatal(err)
		}
		checkResident(t, tc)
		return src
	}
	get(400) // 800 parallel + 600 init = 1400 records
	if tc.records != 1400 {
		t.Fatalf("%d records resident, want 1400: the init section must count", tc.records)
	}
	get(100) // 350: exactly at budget, nothing evicted
	if len(tc.traces) != 2 || tc.records != 1750 {
		t.Fatalf("%d traces, %d records resident; want 2 and 1750", len(tc.traces), tc.records)
	}
	get(101) // 353: the 1400-record trace (least recently used) must go
	if len(tc.traces) != 2 || tc.records != 703 {
		t.Fatalf("%d traces, %d records resident; want 2 and 703", len(tc.traces), tc.records)
	}
	if _, ok := tc.traces[traceKey(spec, cacheOpts(400))]; ok {
		t.Fatal("large trace survived; eviction did not go by records")
	}

	// 2100 records is over the whole budget: streamed every time, and the
	// resident set is untouched.
	huge := get(600)
	if len(tc.traces) != 2 || tc.records != 703 {
		t.Fatalf("over-budget trace changed the resident set: %d traces, %d records", len(tc.traces), tc.records)
	}
	if again := get(600); again == huge {
		t.Fatal("over-budget trace was memoised")
	}
}

// TestTraceCacheConcurrent drives one memo from several goroutines at once,
// mixing hits, shared in-flight generations, evictions and over-budget
// streams: every caller must get a trace of the length it asked for, and the
// resident set must stay consistent and within budget.
func TestTraceCacheConcurrent(t *testing.T) {
	tc := newTraceCache(1100)
	spec := workload.MustGet("streamcluster")
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				accesses := 100 + (g+i)%4
				if i%5 == 0 {
					accesses = 400 // 1400 records: over budget, streamed
				}
				src, err := tc.get(spec, cacheOpts(accesses))
				if err != nil {
					t.Error(err)
					return
				}
				if got := src.ThreadLen(0); got != accesses {
					t.Errorf("asked for %d accesses per thread, got %d", accesses, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkResident(t, tc)
}

// TestTraceBudgetHoldsPaperScale pins where the default budget puts the
// paper's campaigns: two paper-scale traces of any workload fit at once, so
// the default campaigns replay memoised traces, and the quick fig6 working
// set fits whole, so a quick campaign never regenerates a trace. A trace of
// thrice the paper's length is over budget and streams.
func TestTraceBudgetHoldsPaperScale(t *testing.T) {
	records := func(cfg Config, name string, accesses int) int {
		t.Helper()
		src, err := workload.NewSource(workload.MustGet(name), workload.Options{Threads: cfg.Threads, Scale: cfg.Scale, AccessesPerThread: accesses})
		if err != nil {
			t.Fatal(err)
		}
		return traceRecords(src)
	}
	def := DefaultConfig()
	quick := QuickConfig()
	quickSet := 0
	for _, name := range def.workloadNames() {
		if n := records(def, name, 0); 2*n > traceBudget {
			t.Errorf("paper-scale %s trace is %d records; two do not fit the %d-record budget", name, n, traceBudget)
		}
		quickSet += records(quick, name, quick.AccessesPerThread)
	}
	if quickSet > traceBudget {
		t.Errorf("quick working set is %d records, over the %d-record budget", quickSet, traceBudget)
	}
	if n := records(def, "streamcluster", 600_000); n <= traceBudget {
		t.Errorf("a %d-record trace fits the budget; the streaming side is untested", n)
	}
}
