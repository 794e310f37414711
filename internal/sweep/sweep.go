// Package sweep is the experiment fan-out substrate: it runs batches of
// independent simulation jobs with bounded parallelism while keeping every
// observable output deterministic. The C3D evaluation is a large
// design × workload × latency product, and CI compares sweep output
// byte-for-byte across machines and parallelism levels, so the package
// guarantees:
//
//   - results are returned in job order, no matter which goroutine finished
//     first;
//   - the reported error is the first failing job in job order, not the
//     first failure in wall-clock order;
//   - every job runs with the seed it carries, so adding, removing or
//     reordering other jobs — or changing Parallelism — never changes a
//     job's random stream;
//   - progress callbacks are serialised (safe to print from).
//
// WriteJSON and WriteCSV (emit.go) serialise sweep results for tooling that
// consumes raw sweep output; cmd/c3dexp serialises at the experiment-table
// level instead (stats.Table), since its results aggregate many jobs.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of work in a sweep.
type Job[T any] struct {
	// Key identifies the job in results, progress lines and error messages.
	// Keys should be unique within a sweep; results preserve job order, so
	// duplicate keys are not fatal, but they make downstream maps lossy.
	Key string
	// Seed is the job's seed, passed to Run and recorded in its result.
	// Jobs that must share random streams — e.g. every coherence design
	// simulating the same workload trace — carry the same seed.
	Seed int64
	// Run executes the job with its Seed; jobs that use randomness must
	// derive it all from this value.
	// The context is the sweep's context: long-running jobs should observe
	// its cancellation.
	Run func(ctx context.Context, seed int64) (T, error)
}

// Progress describes one completed job. Completion order is wall-clock order
// and therefore not deterministic; everything else is.
type Progress struct {
	// Key is the completed job's key.
	Key string
	// Index is the job's position in the sweep.
	Index int
	// Done is the number of jobs completed so far, Total the sweep size.
	Done, Total int
	// Elapsed is the job's wall-clock duration.
	Elapsed time.Duration
	// Err is the job's error, if it failed.
	Err error
}

// Options configure a sweep.
type Options struct {
	// Parallelism bounds concurrently running jobs (<=0 means GOMAXPROCS).
	// It affects wall-clock time only: results are identical at any value.
	Parallelism int
	// Progress, if non-nil, is called after each job completes. Calls are
	// serialised but arrive in completion order.
	Progress func(Progress)
}

// Result pairs a job with its outcome.
type Result[T any] struct {
	// Key and Seed echo the job's identity.
	Key  string
	Seed int64
	// Value is the job's output (zero when Err is non-nil).
	Value T
	// Err is the job's failure, if any.
	Err error
	// Elapsed is the job's wall-clock duration. It is reported for
	// observability and deliberately excluded from the serialised formats,
	// which must be byte-identical across runs.
	Elapsed time.Duration
}

// Run executes the jobs and returns one result per job, in job order. The
// returned error is the error of the first failing job in job order (every
// job still runs; per-job errors are also available in the results).
//
// Cancelling the context stops the sweep early: no new job is started once
// ctx is done, jobs already running receive the cancelled context, jobs that
// never started carry ctx's error in their result, and Run returns ctx's
// error. A cancelled sweep is the one case where results are not
// deterministic — which jobs completed depends on wall-clock timing.
func Run[T any](ctx context.Context, jobs []Job[T], opts Options) ([]Result[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	results := make([]Result[T], len(jobs))
	started := make([]bool, len(jobs))

	var (
		mu   sync.Mutex
		done int
		next int
		wg   sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			if next >= len(jobs) {
				mu.Unlock()
				return
			}
			i := next
			next++
			started[i] = true
			mu.Unlock()

			job := jobs[i]
			//c3dlint:allow determinism(Elapsed feeds progress reporting and Result.Elapsed, never emitted result bytes)
			start := time.Now()
			value, err := job.Run(ctx, job.Seed)
			elapsed := time.Since(start) //c3dlint:allow determinism(see start above: elapsed never reaches result bytes)
			if err != nil {
				err = fmt.Errorf("sweep job %s: %w", job.Key, err)
			}
			results[i] = Result[T]{Key: job.Key, Seed: job.Seed, Value: value, Err: err, Elapsed: elapsed}

			mu.Lock()
			done++
			if opts.Progress != nil {
				opts.Progress(Progress{Key: job.Key, Index: i, Done: done, Total: len(jobs), Elapsed: elapsed, Err: err})
			}
			mu.Unlock()
		}
	}
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go worker()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Mark every job that never started so callers can tell "not run"
		// from "ran and produced a zero value".
		for i := range results {
			if !started[i] {
				results[i] = Result[T]{Key: jobs[i].Key, Err: fmt.Errorf("sweep job %s: %w", jobs[i].Key, err)}
			}
		}
		return results, err
	}
	for i := range results {
		if results[i].Err != nil {
			return results, results[i].Err
		}
	}
	return results, nil
}
