package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"c3d/internal/server"
	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// serviceClients is the number of closed-loop clients: one per CPU of the
// 2-vCPU reference box. Each waits for its job's result before submitting
// the next, as SDK and -remote callers do.
const serviceClients = 2

// verifyEvery is how often a job's result bytes are recomputed locally and
// compared: one job in verifyEvery, checked after the timed phase so the
// reference simulations do not compete with the server for the CPUs.
const verifyEvery = 64

// serviceJob is the job every client submits: a tiny streamcluster
// simulation, so per-job fixed costs dominate. Each job gets its own seed.
// It runs at the sim-* workloads' scale of 512: at the default 64, zeroing
// and scanning 64 MiB of DRAM-cache arrays per job is most of the work, and
// memory bandwidth shared with other tenants moved that rate 2x between runs.
func serviceJob(seed int64) api.JobSpec {
	return api.JobSpec{
		Kind:     api.KindSimulate,
		Workload: "streamcluster",
		Params:   api.Params{Quick: true, Threads: 2, Accesses: 200, Scale: 512, Seed: seed},
	}
}

// serviceRecords is the trace records one job's simulation consumes.
const serviceRecords = 2 * 200

// serviceRunner drives an in-process c3dd (server.New behind httptest, the
// daemon's default of one job at a time) through api.Client.
type serviceRunner struct {
	srv    *server.Server
	ts     *httptest.Server
	client *api.Client
	base   int64 // seed base, unique per benchmark seed
	next   atomic.Int64
	size   size

	measured int
	toVerify []jobResult
}

// jobResult is what one client recorded about one job.
type jobResult struct {
	seed    int64
	latency float64
	done    time.Duration // when it finished, from the start of the phase
	spans   map[string]float64
	result  []byte
	err     error
}

func setupService(ctx context.Context, o childOpts) (runner, error) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	r := &serviceRunner{
		srv:    srv,
		ts:     ts,
		client: api.NewClient(ts.URL, api.WithHTTPClient(ts.Client())),
		base:   o.Seed * 1_000_000,
		size:   o.Size,
	}
	h, err := r.client.Health(ctx)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("service: /healthz status %q", h.Status)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// job runs one job from submission to result bytes.
func (r *serviceRunner) job(ctx context.Context) jobResult {
	jr := jobResult{seed: r.base + r.next.Add(1), spans: map[string]float64{}}
	start := time.Now()
	jr.err = func() error {
		t := start
		sub, err := r.client.Submit(ctx, serviceJob(jr.seed))
		if err != nil {
			return err
		}
		t = since(jr.spans, "api.submit_s", t)
		state := ""
		err = r.client.Events(ctx, sub.ID, func(ev api.Event) error {
			if ev.Kind == api.EventJobState && api.Terminal(ev.State) {
				state = ev.State
			}
			return nil
		})
		if err != nil {
			return err
		}
		if state != api.StateDone {
			return fmt.Errorf("service: job %s ended %s", sub.ID, state)
		}
		t = since(jr.spans, "api.events_s", t)
		if jr.result, err = r.client.Result(ctx, sub.ID); err != nil {
			return err
		}
		since(jr.spans, "api.result_s", t)
		jr.latency = time.Since(start).Seconds()
		if !json.Valid(jr.result) {
			return fmt.Errorf("service: job %s result is not JSON", sub.ID)
		}
		if jr.seed%verifyEvery != 0 {
			jr.result = nil // only kept for the jobs finish recomputes
		}
		// The server's own timestamps split the latency, outside it.
		st, err := r.client.Status(ctx, sub.ID)
		if err != nil {
			return err
		}
		wait, run := st.Started.Sub(st.Created).Seconds(), st.Finished.Sub(st.Started).Seconds()
		jr.spans["server.queue_wait_s"] = wait
		jr.spans["server.run_s"] = run
		jr.spans["service.overhead_s"] = jr.latency - wait - run
		return nil
	}()
	return jr
}

// loop runs the closed-loop clients until d has passed and returns every
// job they finished, and the wall time until the last one finished.
func (r *serviceRunner) loop(ctx context.Context, d time.Duration) ([]jobResult, time.Duration) {
	start := time.Now()
	per := make([][]jobResult, serviceClients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				jr := r.job(ctx)
				jr.done = time.Since(start)
				per[c] = append(per[c], jr)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []jobResult
	for _, jobs := range per {
		all = append(all, jobs...)
	}
	return all, wall
}

// warm runs jobs until the server starts evicting finished ones. A
// long-lived daemon holds a full table of finished jobs, which every garbage
// collection scans, so timing starts in that steady state rather than while
// the table fills.
func (r *serviceRunner) warm(ctx context.Context, rep *workloadReport) {
	for r.next.Load() < int64(r.size.MaxWarmJobs) {
		jobs, _ := r.loop(ctx, time.Second/2)
		for _, jr := range jobs {
			rep.Attempted++
			if jr.err != nil {
				rep.fail(jr.err)
			}
		}
		page, err := r.client.Jobs(ctx, 0, 1)
		if err != nil {
			rep.fail(err)
			return
		}
		if int64(page.Total) < r.next.Load() {
			return
		}
	}
}

// serviceSlices is how many runs of consecutive job completions the timed
// phase is cut into for throughput samples, the service's counterpart of ops.
const serviceSlices = 20

// sliceRates returns the record rate of each run of len(done)/slices
// consecutive completions, given the completion times.
func sliceRates(done []time.Duration, slices int) []float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	k := max(len(done)/slices, 1)
	var rates []float64
	var prev time.Duration
	for i := k; i <= len(done); i += k {
		if t := done[i-1]; t > prev {
			rates = append(rates, float64(k*serviceRecords)/(t-prev).Seconds())
			prev = t
		}
	}
	return rates
}

func (r *serviceRunner) measure(ctx context.Context, d time.Duration, rep *workloadReport) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	jobs, wall := r.loop(ctx, d)
	runtime.ReadMemStats(&after)
	var lat []float64
	var done []time.Duration
	spans := map[string][]float64{}
	for _, jr := range jobs {
		rep.Attempted++
		if jr.err != nil {
			rep.fail(jr.err)
			continue
		}
		lat = append(lat, jr.latency)
		done = append(done, jr.done)
		for k, v := range jr.spans {
			spans[k] = append(spans[k], v)
		}
		if jr.seed%verifyEvery == 0 {
			r.toVerify = append(r.toVerify, jr)
		}
	}
	r.measured = len(lat)
	records := float64(len(lat) * serviceRecords)
	rep.Ops = len(lat)
	rep.Metrics["accesses_per_s"] = fastest(sliceRates(done, serviceSlices), "records/s")
	rep.Metrics["alloc_bytes_per_access"] = single(float64(after.TotalAlloc-before.TotalAlloc)/records, "B")
	rep.Metrics["jobs_per_s"] = single(float64(len(lat))/wall.Seconds(), "jobs/s")
	rep.Metrics["op_p50_s"] = summarize(lat, "s")
	if p99, ok := tailPercentile(lat, 99); ok {
		m := single(p99, "s")
		m.N = len(lat)
		rep.Metrics["op_p99_s"] = m
	}
	for k, v := range spans {
		rep.Spans[k] = summarize(v, "s")
	}
}

func (r *serviceRunner) traced(ctx context.Context, d time.Duration, rep *workloadReport) (int64, float64) {
	jobs, wall := r.loop(ctx, d)
	var done int64
	for _, jr := range jobs {
		rep.Attempted++
		if jr.err != nil {
			rep.fail(jr.err)
			continue
		}
		done++
	}
	records := done * serviceRecords
	return records, float64(records) / wall.Seconds()
}

// finish checks the sampled jobs' bytes against the SDK run the server wraps:
// Session.Simulate, indented JSON, one trailing newline.
func (r *serviceRunner) finish(ctx context.Context, rep *workloadReport) {
	for _, jr := range r.toVerify {
		want, err := localResult(ctx, jr.seed)
		if err == nil && !bytes.Equal(jr.result, want) {
			err = fmt.Errorf("service: seed %d result differs from Session.Simulate", jr.seed)
		}
		if err != nil {
			rep.fail(err)
		}
	}
	if r.measured < r.size.MinJobs {
		rep.Guard = fmt.Sprintf("service-jobs: %d jobs < %d", r.measured, r.size.MinJobs)
	}
}

// localResult is the result document the server should serve for a job.
func localResult(ctx context.Context, seed int64) ([]byte, error) {
	spec := serviceJob(seed)
	sess, err := c3d.Params(spec.Params).Session()
	if err != nil {
		return nil, err
	}
	res, err := sess.Simulate(ctx, spec.Workload)
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	return append(out, '\n'), err
}

func (r *serviceRunner) close() {
	r.ts.Close()
	r.srv.Close()
}
