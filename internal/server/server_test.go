package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// newTestServer starts a server over real HTTP and returns an api.Client for
// it — the server e2e suite runs on the same public client every external
// consumer uses, so the client is exercised against the real wire format on
// every test run.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, api.NewClient(ts.URL)
}

func submit(t *testing.T, cl *api.Client, spec api.JobSpec) string {
	t.Helper()
	resp, err := cl.Submit(t.Context(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.ID == "" {
		t.Fatal("submit returned no job id")
	}
	return resp.ID
}

func waitState(t *testing.T, cl *api.Client, id string, want string) *api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 60*time.Second)
	defer cancel()
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == want {
			return st
		}
		if api.Terminal(st.State) {
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			t.Fatalf("job %s never reached state %q", id, want)
		}
	}
}

// quickSpec is a seconds-scale experiment job.
func quickSpec(parallel int) api.JobSpec {
	return api.JobSpec{
		Kind:        api.KindExperiment,
		Experiments: []string{"table1"},
		Params: api.Params{
			Quick:       true,
			Workloads:   []string{"streamcluster"},
			Accesses:    2000,
			Parallelism: parallel,
		},
	}
}

// TestEndToEnd drives the full daemon flow through the public client:
// healthz, submit, progress stream (replay + follow to the terminal marker),
// wait, result fetch.
func TestEndToEnd(t *testing.T) {
	_, cl := newTestServer(t, Config{})

	health, err := cl.Health(t.Context())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Status != "ok" || health.Version == "" {
		t.Fatalf("healthz: %+v", health)
	}

	id := submit(t, cl, quickSpec(0))

	// The events stream must replay history and follow until the terminal
	// state marker — Events returning nil IS the completion wait.
	var kinds []string
	sawSimulation := false
	err = cl.Events(t.Context(), id, func(ev api.Event) error {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "simulation_done" {
			sawSimulation = true
			if ev.Total != 1 || ev.Done != 1 {
				t.Errorf("progress counts %d/%d, want 1/1", ev.Done, ev.Total)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if !sawSimulation {
		t.Fatalf("no simulation_done event in stream: %v", kinds)
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != api.EventJobState {
		t.Fatalf("stream did not end with a job_state marker: %v", kinds)
	}

	st, err := cl.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Kind != api.KindExperiment {
		t.Errorf("final status %+v", st)
	}

	body, err := cl.Result(t.Context(), id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var results []c3d.ExperimentResult
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("result not a result array: %v", err)
	}
	if len(results) != 1 || results[0].ID != "table1" {
		t.Fatalf("unexpected results: %s", body)
	}
}

// TestCapabilities checks GET /v1/capabilities serves the same document the
// SDK computes locally — the eager-validation contract for remote clients.
func TestCapabilities(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	caps, err := cl.Capabilities(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := c3d.CurrentCapabilities()
	if !reflect.DeepEqual(*caps, want) {
		t.Errorf("capabilities drifted:\n got %+v\nwant %+v", *caps, want)
	}
	if len(caps.Designs) == 0 || len(caps.Topologies) == 0 ||
		len(caps.Experiments) == 0 || len(caps.Workloads) == 0 {
		t.Errorf("capability lists should be non-empty: %+v", caps)
	}
	// The document must reject a bogus spec and accept a real one.
	if err := caps.SupportsSpec(quickSpec(0)); err != nil {
		t.Errorf("SupportsSpec(valid) = %v", err)
	}
	if err := caps.SupportsSpec(api.JobSpec{Kind: api.KindExperiment, Experiments: []string{"fig99"}}); err == nil {
		t.Error("SupportsSpec accepted an unknown experiment")
	}
}

// TestServerResultMatchesCLIBytes is the determinism acceptance gate: a
// server-run sweep's result document must be byte-identical to what
// `c3dexp -json` prints for the same parameters — at any parallelism. The
// CLI path is reproduced exactly: Params -> Session -> Sweep ->
// WriteResultsJSON, which is precisely what cmd/c3dexp executes.
func TestServerResultMatchesCLIBytes(t *testing.T) {
	_, cl := newTestServer(t, Config{MaxConcurrent: 2})

	fetch := func(parallel int) []byte {
		id := submit(t, cl, quickSpec(parallel))
		if _, err := cl.Wait(t.Context(), id); err != nil {
			t.Fatal(err)
		}
		body, err := cl.Result(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// The CLI code path, verbatim (cmd/c3dexp with the same flags).
	sess, err := c3d.Params(quickSpec(0).Params).Session()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.Sweep(t.Context(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := c3d.WriteResultsJSON(&cli, results); err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 4} {
		if got := fetch(parallel); !bytes.Equal(got, cli.Bytes()) {
			t.Errorf("server result (parallel=%d) differs from CLI bytes:\nserver: %s\ncli:    %s",
				parallel, got, cli.Bytes())
		}
	}
}

// TestSimulateAndVerifyJobs covers the two other job kinds end to end.
func TestSimulateAndVerifyJobs(t *testing.T) {
	_, cl := newTestServer(t, Config{})

	simID := submit(t, cl, api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 8, Scale: 512, Accesses: 2000},
	})
	if _, err := cl.Wait(t.Context(), simID); err != nil {
		t.Fatal(err)
	}
	raw, err := cl.Result(t.Context(), simID)
	if err != nil {
		t.Fatalf("simulate result: %v", err)
	}
	var sim c3d.SimulateResult
	if err := json.Unmarshal(raw, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Workload != "streamcluster" || sim.Cycles == 0 {
		t.Fatalf("implausible simulate result: %+v", sim.RunResult)
	}

	// A generalized shape — 8 sockets on a mesh fabric — runs through the
	// same job path, and the resolved topology lands in the result.
	meshID := submit(t, cl, api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 8, Scale: 512, Accesses: 2000, Sockets: 8, Topology: "mesh"},
	})
	if _, err := cl.Wait(t.Context(), meshID); err != nil {
		t.Fatal(err)
	}
	rawMesh, err := cl.Result(t.Context(), meshID)
	if err != nil {
		t.Fatalf("mesh simulate result: %v", err)
	}
	var mesh c3d.SimulateResult
	if err := json.Unmarshal(rawMesh, &mesh); err != nil {
		t.Fatal(err)
	}
	if mesh.Sockets != 8 || mesh.Topology != c3d.Mesh {
		t.Fatalf("mesh job reported %d sockets, topology %q", mesh.Sockets, mesh.Topology)
	}

	verID := submit(t, cl, api.JobSpec{
		Kind:   api.KindVerify,
		Verify: api.VerifySpec{Sockets: 2},
	})
	if _, err := cl.Wait(t.Context(), verID); err != nil {
		t.Fatal(err)
	}
	rawVer, err := cl.Result(t.Context(), verID)
	if err != nil {
		t.Fatalf("verify result: %v", err)
	}
	var reports []c3d.Report
	if err := json.Unmarshal(rawVer, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 verify reports, got %d", len(reports))
	}
	for _, r := range reports {
		if r.StatesExplored == 0 {
			t.Errorf("report %s explored no states", r.Model)
		}
	}
}

// TestCancelJob checks cancellation aborts a running job promptly, the
// status reflects it, and the result endpoint answers with the conflict
// code.
func TestCancelJob(t *testing.T) {
	_, cl := newTestServer(t, Config{})

	// A job big enough to still be running when the cancel lands.
	id := submit(t, cl, api.JobSpec{
		Kind:        api.KindExperiment,
		Experiments: []string{"all"},
		Params:      api.Params{Quick: true, Accesses: 60_000},
	})
	waitState(t, cl, id, api.StateRunning)
	if _, err := cl.Cancel(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, cl, id, api.StateCancelled)
	if !strings.Contains(st.Error, "context canceled") {
		t.Errorf("cancelled job error = %q", st.Error)
	}
	_, err := cl.Result(t.Context(), id)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict || apiErr.HTTPStatus != http.StatusConflict {
		t.Errorf("result of cancelled job: %v, want conflict envelope with HTTP 409", err)
	}
}

// TestCancelQueuedJob checks cancelling a job that has not started flips it
// to cancelled immediately, without waiting for a worker to dequeue it.
func TestCancelQueuedJob(t *testing.T) {
	_, cl := newTestServer(t, Config{MaxConcurrent: 1})
	long := api.JobSpec{
		Kind:        api.KindExperiment,
		Experiments: []string{"all"},
		Params:      api.Params{Quick: true, Accesses: 60_000},
	}
	first := submit(t, cl, long) // occupies the single worker
	waitState(t, cl, first, api.StateRunning)
	queued := submit(t, cl, quickSpec(0))

	resp, err := cl.Cancel(t.Context(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != api.StateCancelled {
		t.Fatalf("cancelled queued job reports state %q, want %q immediately", resp.State, api.StateCancelled)
	}

	// Unblock the worker so Close does not wait out the long campaign.
	if _, err := cl.Cancel(t.Context(), first); err != nil {
		t.Error(err)
	}
}

// TestSubmitValidation checks malformed specs are rejected at the door with
// the uniform error envelope and the invalid_spec code. Raw HTTP is used on
// purpose: these bodies are exactly what a hand-rolling client would send.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	cl := api.NewClient(ts.URL)

	for name, body := range map[string]string{
		"unknown kind":       `{"kind":"frobnicate"}`,
		"unknown experiment": `{"kind":"experiment","experiments":["fig99"]}`,
		"missing workload":   `{"kind":"simulate"}`,
		"bad design":         `{"kind":"simulate","workload":"streamcluster","params":{"design":"warp-drive"}}`,
		"unknown field":      `{"kind":"simulate","workload":"streamcluster","bogus":1}`,
		"negative sockets":   `{"kind":"simulate","workload":"streamcluster","params":{"sockets":-4}}`,
		"bad warmup":         `{"kind":"simulate","workload":"streamcluster","params":{"warmup":1.5}}`,
		"unknown workload":   `{"kind":"experiment","params":{"workloads":["not-a-workload"]}}`,
		"bad topology":       `{"kind":"simulate","workload":"streamcluster","params":{"topology":"moebius"}}`,
		"unhostable shape":   `{"kind":"simulate","workload":"streamcluster","params":{"topology":"ring","sockets":2}}`,
		// Params lost "stream" (2026-10): old clients that still send it
		// are refused, not silently run under a knob that no longer exists.
		"removed stream field": `{"kind":"simulate","workload":"streamcluster","params":{"stream":true}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
			t.Errorf("%s: body is not an error envelope: %v", name, err)
		} else if env.Error.Code != api.CodeInvalidSpec {
			t.Errorf("%s: code %q, want %q", name, env.Error.Code, api.CodeInvalidSpec)
		}
		resp.Body.Close()
	}

	_, err := cl.Status(t.Context(), "job-999999")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("unknown job: %v, want not_found envelope with HTTP 404", err)
	}
}

// TestListPaginationAndRetention checks /v1/jobs ordering, the pagination
// envelope, limit clamping, and the finished-job retention bound.
func TestListPaginationAndRetention(t *testing.T) {
	_, cl := newTestServer(t, Config{MaxJobs: 3})
	spec := api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 4, Scale: 512, Accesses: 500},
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id := submit(t, cl, spec)
		if _, err := cl.Wait(t.Context(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	page, err := cl.Jobs(t.Context(), 0, 0)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if page.Total != 3 || len(page.Jobs) != 3 || page.Offset != 0 {
		t.Fatalf("retained page = total %d, %d jobs, offset %d; want 3/3/0", page.Total, len(page.Jobs), page.Offset)
	}
	for i, st := range page.Jobs {
		if want := ids[len(ids)-3+i]; st.ID != want {
			t.Errorf("jobs[%d] = %s, want %s (newest-3 in insertion order)", i, st.ID, want)
		}
	}

	// A bounded page: offset 1, limit 1 → exactly the middle survivor.
	small, err := cl.Jobs(t.Context(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Total != 3 || len(small.Jobs) != 1 || small.Offset != 1 || small.Jobs[0].ID != ids[3] {
		t.Errorf("page(1,1) = %+v, want the single middle job %s", small, ids[3])
	}

	// Offsets beyond the end clamp to an empty page, never an error.
	empty, err := cl.Jobs(t.Context(), 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Jobs) != 0 || empty.Total != 3 {
		t.Errorf("page(99,10) = %+v, want empty page with total 3", empty)
	}
}

// TestQueueBound checks submissions beyond the queue depth are rejected with
// 503 rather than queued unboundedly.
func TestQueueBound(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer s.Close()
	// Fill the single queue slot without letting the worker drain it: the
	// worker takes one job, a second occupies the queue, the third must
	// bounce. Use a long job to hold the worker.
	long := api.JobSpec{
		Kind:        api.KindExperiment,
		Experiments: []string{"all"},
		Params:      api.Params{Quick: true, Accesses: 60_000},
	}
	if _, err := s.submit(long); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to claim the first job.
	time.Sleep(100 * time.Millisecond)
	if _, err := s.submit(long); err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(long); err == nil {
		t.Fatal("third submission should have been rejected (queue full)")
	} else if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("unexpected rejection error: %v", err)
	}
	// Cancel everything so Close doesn't wait for the long jobs.
	for _, st := range s.statuses() {
		j, _ := s.job(st.ID)
		j.requestCancel()
	}
}

// TestQueueFullEnvelope checks the HTTP layer reports a full queue with the
// queue_full code so clients can back off programmatically.
func TestQueueFullEnvelope(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	// No retries: the client must surface the 503 envelope, not retry it
	// into a timeout.
	cl := api.NewClient(ts.URL, api.WithRetries(0))

	long := api.JobSpec{
		Kind:        api.KindExperiment,
		Experiments: []string{"all"},
		Params:      api.Params{Quick: true, Accesses: 60_000},
	}
	first, err := cl.Submit(t.Context(), long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, first.ID, api.StateRunning)
	second, err := cl.Submit(t.Context(), long)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(t.Context(), long)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeQueueFull || apiErr.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %v, want queue_full envelope with HTTP 503", err)
	}
	for _, id := range []string{first.ID, second.ID} {
		if _, err := cl.Cancel(t.Context(), id); err != nil {
			t.Error(err)
		}
	}
}

// TestDrainFinishesAcceptedWork covers graceful shutdown: once a drain
// begins, /healthz reports "draining" and new submissions bounce with
// shutting_down, but every job already accepted — running or still queued —
// finishes normally and its result stays fetchable.
func TestDrainFinishesAcceptedWork(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxConcurrent: 1})
	cl = api.NewClient(cl.BaseURL(), api.WithRetries(0))
	spec := api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 4, Scale: 512, Accesses: 200000, Seed: 1},
	}
	running := submit(t, cl, spec)
	spec.Params.Seed = 2
	spec.Params.Accesses = 500
	queued := submit(t, cl, spec)
	waitState(t, cl, running, api.StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// The closed flag flips before the queue drains; poll briefly for it.
	deadline := time.Now().Add(5 * time.Second)
	for !s.isClosed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h, err := cl.Health(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health during drain = %q, want draining", h.Status)
	}
	_, err = cl.Submit(t.Context(), spec)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeShuttingDown || apiErr.HTTPStatus != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %v, want shutting_down envelope with HTTP 503", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running, queued} {
		st, err := cl.Status(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Errorf("job %s finished %s after drain, want done: %s", id, st.State, st.Error)
		}
		if _, err := cl.Result(t.Context(), id); err != nil {
			t.Errorf("result of %s unavailable after drain: %v", id, err)
		}
	}
}

// TestDrainDeadlineFallsBackToCancel pins the bounded-drain contract: when
// the drain context is already dead, Drain still returns promptly with the
// context error and the server ends up fully stopped.
func TestDrainDeadlineFallsBackToCancel(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxConcurrent: 1})
	id := submit(t, cl, api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Threads: 4, Scale: 512, Accesses: 200000, Seed: 3},
	})
	waitState(t, cl, id, api.StateRunning)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain returned %v, want context.Canceled", err)
	}
	st, err := cl.Status(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !api.Terminal(st.State) {
		t.Errorf("job still %s after fallback cancel", st.State)
	}
}
