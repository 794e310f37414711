package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"c3d/internal/server"
	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// startWorkers brings up n real worker daemons (the same internal/server the
// production c3dd runs) over HTTP and returns their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := server.New(server.Config{MaxConcurrent: 2})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// newCoordinator builds a coordinator over the given workers and returns an
// api.Client speaking to its HTTP handler — campaigns flow through the real
// wire, exactly as c3dexp -remote drives them.
func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *api.Client) {
	t.Helper()
	co, err := New(t.Context(), cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, api.NewClient(ts.URL)
}

// simSpec is a sub-second simulate job; distinct seeds make distinct jobs
// (and distinct cache keys).
func simSpec(seed int64) api.JobSpec {
	return api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 4, Scale: 512, Accesses: 500, Seed: seed},
	}
}

func testCampaign(n int) api.CampaignSpec {
	var spec api.CampaignSpec
	for i := 0; i < n; i++ {
		spec.Jobs = append(spec.Jobs, simSpec(int64(i+1)))
	}
	return spec
}

// referenceResults runs each spec directly on a standalone worker — no
// coordinator involved — and returns the result documents. This is the
// byte-identity baseline every distributed configuration must reproduce.
func referenceResults(t *testing.T, specs []api.JobSpec) [][]byte {
	t.Helper()
	cl := api.NewClient(startWorkers(t, 1)[0])
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		resp, err := cl.Submit(t.Context(), spec)
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		if _, err := cl.Wait(t.Context(), resp.ID); err != nil {
			t.Fatal(err)
		}
		raw, err := cl.Result(t.Context(), resp.ID)
		if err != nil {
			t.Fatalf("reference result: %v", err)
		}
		// The campaign wire carries JSON value bytes; a result endpoint's
		// trailing newline is presentation, not content.
		out[i] = bytes.TrimSpace(raw)
	}
	return out
}

func runCampaign(t *testing.T, cl *api.Client, spec api.CampaignSpec) (*api.CampaignStatus, *api.CampaignResults) {
	t.Helper()
	resp, err := cl.SubmitCampaign(t.Context(), spec)
	if err != nil {
		t.Fatalf("submit campaign: %v", err)
	}
	st, err := cl.WaitCampaign(t.Context(), resp.ID)
	if err != nil {
		t.Fatalf("wait campaign: %v", err)
	}
	if st.State != api.StateDone {
		t.Fatalf("campaign %s finished %s: %s (%+v)", st.ID, st.State, st.Error, st.Jobs)
	}
	res, err := cl.CampaignResults(t.Context(), resp.ID)
	if err != nil {
		t.Fatalf("campaign results: %v", err)
	}
	return st, res
}

// TestAssemblyByteIdenticalAcrossFleets is the distribution-invisibility
// gate: the same campaign, run through every routing policy at worker counts
// 1, 2 and 4, must assemble result documents byte-identical to running each
// job directly on a single worker.
func TestAssemblyByteIdenticalAcrossFleets(t *testing.T) {
	spec := testCampaign(4)
	want := referenceResults(t, spec.Jobs)
	workers := startWorkers(t, 4)

	for _, policy := range Policies() {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s-%dw", policy, n), func(t *testing.T) {
				_, cl := newCoordinator(t, Config{Workers: workers[:n], Policy: policy})
				st, res := runCampaign(t, cl, spec)
				if st.CacheHits != 0 {
					t.Errorf("cold campaign reported %d cache hits", st.CacheHits)
				}
				if len(res.Results) != len(want) {
					t.Fatalf("got %d results, want %d", len(res.Results), len(want))
				}
				for i, doc := range res.Results {
					if !bytes.Equal(doc, want[i]) {
						t.Errorf("job %d result differs from direct run:\n got %s\nwant %s", i, doc, want[i])
					}
				}
			})
		}
	}
}

// TestRoundRobinSpreadsJobs checks routing actually distributes: with two
// workers and four jobs, round-robin must assign work to both.
func TestRoundRobinSpreadsJobs(t *testing.T) {
	co, cl := newCoordinator(t, Config{Workers: startWorkers(t, 2), Policy: "round-robin"})
	st, _ := runCampaign(t, cl, testCampaign(4))
	used := map[string]int{}
	for _, j := range st.Jobs {
		used[j.Worker]++
	}
	if len(used) != 2 {
		t.Errorf("round-robin used %d workers, want 2: %v", len(used), used)
	}
	h := co.Health()
	var assigned int64
	for _, w := range h.Workers {
		assigned += w.Assigned
		if w.Inflight != 0 {
			t.Errorf("worker %s still reports %d in-flight after completion", w.URL, w.Inflight)
		}
	}
	if assigned != 4 {
		t.Errorf("fleet assigned %d jobs total, want 4", assigned)
	}
}

// TestRepeatCampaignServedFromCache is the content-addressed cache gate: a
// repeated campaign must be answered entirely from cache — no dispatch, hit
// counters up — with bytes cmp-equal to the cold run.
func TestRepeatCampaignServedFromCache(t *testing.T) {
	co, cl := newCoordinator(t, Config{Workers: startWorkers(t, 2)})
	spec := testCampaign(3)

	_, cold := runCampaign(t, cl, spec)
	st, warm := runCampaign(t, cl, spec)

	if st.CacheHits != len(spec.Jobs) {
		t.Errorf("repeat campaign: %d cache hits, want %d", st.CacheHits, len(spec.Jobs))
	}
	for _, j := range st.Jobs {
		if !j.CacheHit || j.Attempts != 0 || j.Worker != "" {
			t.Errorf("repeat job %d should be a pure cache hit: %+v", j.Index, j)
		}
	}
	for i := range cold.Results {
		if !bytes.Equal(cold.Results[i], warm.Results[i]) {
			t.Errorf("cached result %d differs from cold run", i)
		}
	}
	stats := co.Health().Cache
	if stats == nil || stats.Hits != int64(len(spec.Jobs)) || stats.Entries != len(spec.Jobs) {
		t.Errorf("cache stats after repeat = %+v, want %d hits over %d entries", stats, len(spec.Jobs), len(spec.Jobs))
	}

	// A different seed is a different content address: no false hits.
	st2, _ := runCampaign(t, cl, testCampaign(4)) // jobs 1-3 cached, job 4 new
	if st2.CacheHits != 3 {
		t.Errorf("extended campaign: %d cache hits, want 3", st2.CacheHits)
	}
}

// dyingWorker mimics a daemon that accepts a job and then crashes: the
// capabilities handshake and submission succeed, every later request has its
// connection severed. deaths counts severed requests.
func dyingWorker(t *testing.T, deaths *atomic.Int64) string {
	t.Helper()
	mux := http.NewServeMux()
	caps := c3d.CurrentCapabilities()
	serve := func(v any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(v)
		}
	}
	mux.HandleFunc("GET /v1/capabilities", serve(caps))
	mux.HandleFunc("GET /healthz", serve(api.Health{Status: "ok", Version: caps.Version}))
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.SubmitResponse{ID: "job-000001", State: api.StateQueued})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		deaths.Add(1)
		panic(http.ErrAbortHandler) // sever the connection: the worker "died"
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestWorkerDiesMidJobReassigned is the fault-tolerance gate: a worker that
// accepts a job and then dies must get benched, and its job reassigned to a
// surviving worker, with campaign results still byte-identical to a direct
// run.
func TestWorkerDiesMidJobReassigned(t *testing.T) {
	spec := testCampaign(2)
	want := referenceResults(t, spec.Jobs)

	var deaths atomic.Int64
	healthyURL := startWorkers(t, 1)[0]
	_, cl := newCoordinator(t, Config{
		Workers:       []string{healthyURL, dyingWorker(t, &deaths)},
		Policy:        "round-robin",
		Cooldown:      50 * time.Millisecond,
		ClientOptions: []api.ClientOption{api.WithRetries(0)},
	})

	st, res := runCampaign(t, cl, spec)
	if deaths.Load() == 0 {
		t.Fatal("no job ever reached the dying worker; the test exercised nothing")
	}
	reassigned := 0
	for _, j := range st.Jobs {
		if j.State != api.StateDone {
			t.Errorf("job %d finished %s: %s", j.Index, j.State, j.Error)
		}
		if j.Worker != healthyURL {
			t.Errorf("job %d credited to %s, want the surviving worker", j.Index, j.Worker)
		}
		if j.Attempts > 1 {
			reassigned++
		}
	}
	if reassigned == 0 {
		t.Error("no job recorded a reassignment (attempts > 1)")
	}
	for i, doc := range res.Results {
		if !bytes.Equal(doc, want[i]) {
			t.Errorf("job %d result differs from direct run after reassignment", i)
		}
	}
}

// TestAllWorkersDeadFailsCampaign checks the bounded-retry path: with only a
// dying worker, attempts exhaust, the campaign fails, and the results
// endpoint answers with the job_failed envelope.
func TestAllWorkersDeadFailsCampaign(t *testing.T) {
	var deaths atomic.Int64
	_, cl := newCoordinator(t, Config{
		Workers:       []string{dyingWorker(t, &deaths)},
		MaxAttempts:   2,
		Cooldown:      10 * time.Millisecond,
		ClientOptions: []api.ClientOption{api.WithRetries(0)},
	})
	resp, err := cl.SubmitCampaign(t.Context(), testCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitCampaign(t.Context(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateFailed {
		t.Fatalf("campaign state %s, want failed", st.State)
	}
	if st.Jobs[0].Attempts != 2 {
		t.Errorf("job recorded %d attempts, want 2", st.Jobs[0].Attempts)
	}
	_, err = cl.CampaignResults(t.Context(), resp.ID)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeJobFailed || apiErr.HTTPStatus != http.StatusUnprocessableEntity {
		t.Errorf("results of failed campaign: %v, want job_failed envelope with HTTP 422", err)
	}
}

// TestAdmissionRateLimit checks the token bucket at the coordinator door:
// a campaign larger than the remaining tokens is rejected whole with 429 and
// the rate_limited code; a campaign within budget is admitted.
func TestAdmissionRateLimit(t *testing.T) {
	_, cl := newCoordinator(t, Config{
		Workers:    startWorkers(t, 1),
		RatePerSec: 0.001, // effectively no refill within the test
		Burst:      2,
	})
	cl = api.NewClient(cl.BaseURL(), api.WithRetries(0))

	// A campaign larger than the burst can never be admitted, so it is an
	// invalid spec rather than a retryable rate limit.
	_, err := cl.SubmitCampaign(t.Context(), testCampaign(3))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidSpec || apiErr.HTTPStatus != http.StatusBadRequest ||
		!strings.Contains(apiErr.Message, "3 jobs") || !strings.Contains(apiErr.Message, "burst is 2") {
		t.Fatalf("oversized campaign: %v, want invalid_spec envelope with HTTP 400 naming 3 jobs and burst 2", err)
	}

	if _, res := runCampaign(t, cl, testCampaign(2)); len(res.Results) != 2 {
		t.Fatal("in-budget campaign should have been admitted and completed")
	}

	// The bucket is drained now: even a single-job campaign bounces.
	_, err = cl.SubmitCampaign(t.Context(), testCampaign(1))
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeRateLimited {
		t.Errorf("post-drain campaign: %v, want rate_limited", err)
	}
}

// TestSubmitValidation checks campaign specs are validated against the
// fleet's capabilities at the door.
func TestSubmitValidation(t *testing.T) {
	_, cl := newCoordinator(t, Config{Workers: startWorkers(t, 1)})

	var apiErr *api.Error
	_, err := cl.SubmitCampaign(t.Context(), api.CampaignSpec{})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidSpec {
		t.Errorf("empty campaign: %v, want invalid_spec", err)
	}

	bogus := api.CampaignSpec{Jobs: []api.JobSpec{{Kind: api.KindExperiment, Experiments: []string{"fig99"}}}}
	_, err = cl.SubmitCampaign(t.Context(), bogus)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidSpec || apiErr.HTTPStatus != http.StatusBadRequest {
		t.Errorf("bogus experiment: %v, want invalid_spec envelope with HTTP 400", err)
	}

	_, err = cl.CampaignStatus(t.Context(), "campaign-999999")
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("unknown campaign: %v, want not_found envelope with HTTP 404", err)
	}
}

// TestHeterogeneousFleetRejected checks the capabilities handshake: a fleet
// whose workers disagree on capabilities must be refused at construction.
func TestHeterogeneousFleetRejected(t *testing.T) {
	odd := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Capabilities{Version: "other", Designs: []string{"c3d"}})
	}))
	t.Cleanup(odd.Close)
	_, err := New(t.Context(), Config{Workers: []string{startWorkers(t, 1)[0], odd.URL}})
	if err == nil {
		t.Fatal("heterogeneous fleet accepted")
	}
}

// TestCoordinatorListAndHealth covers the campaign list page and the
// liveness document's fleet view.
func TestCoordinatorListAndHealth(t *testing.T) {
	co, cl := newCoordinator(t, Config{Workers: startWorkers(t, 2)})
	runCampaign(t, cl, testCampaign(1))
	runCampaign(t, cl, testCampaign(2))

	page := co.List(0, 10)
	if page.Total != 2 || len(page.Campaigns) != 2 {
		t.Fatalf("list = total %d, %d campaigns; want 2/2", page.Total, len(page.Campaigns))
	}
	if page.Campaigns[0].Total != 1 || page.Campaigns[1].Total != 2 {
		t.Errorf("campaigns out of submission order: %+v", page.Campaigns)
	}
	one := co.List(1, 1)
	if one.Offset != 1 || len(one.Campaigns) != 1 || one.Campaigns[0].ID != page.Campaigns[1].ID {
		t.Errorf("page(1,1) = %+v", one)
	}

	h, err := cl.Health(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Workers) != 2 || h.Cache == nil || h.Finished != 2 {
		t.Errorf("coordinator health = %+v", h)
	}
}
