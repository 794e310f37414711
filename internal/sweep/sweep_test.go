package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// jitterJobs builds jobs whose run time varies, so parallel completion order
// differs from job order, and whose value depends only on key and seed. Each
// job's seed comes from its index and base.
func jitterJobs(n int, base int64) []Job[string] {
	jobs := make([]Job[string], n)
	for i := 0; i < n; i++ {
		i := i
		key := fmt.Sprintf("job-%03d", i)
		jobs[i] = Job[string]{
			Key:  key,
			Seed: base + int64(i)*7919,
			Run: func(_ context.Context, seed int64) (string, error) {
				rng := rand.New(rand.NewSource(seed))
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				return fmt.Sprintf("%s:%d:%d", key, i, rng.Intn(1<<30)), nil
			},
		}
	}
	return jobs
}

// TestRunDeterministicAcrossParallelism is the sweep contract: the same jobs
// must produce byte-identical serialised results at Parallelism 1 and
// GOMAXPROCS.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		par := par
		t.Run(fmt.Sprintf("parallel-%d", par), func(t *testing.T) {
			serial, err := Run(context.Background(), jitterJobs(40, 7), Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Run(context.Background(), jitterJobs(40, 7), Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := WriteJSON(&a, serial); err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&b, parallel); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("JSON output differs between Parallelism=1 and Parallelism=%d:\n%s\n---\n%s",
					par, a.String(), b.String())
			}
		})
	}
}

// TestRunResultOrder checks results come back in job order even when later
// jobs finish first.
func TestRunResultOrder(t *testing.T) {
	jobs := make([]Job[int], 16)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: strconv.Itoa(i),
			Run: func(context.Context, int64) (int, error) {
				// Earlier jobs sleep longer, inverting completion order.
				time.Sleep(time.Duration(len(jobs)-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	results, err := Run(context.Background(), jobs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Key != strconv.Itoa(i) || r.Value != i*i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

// TestRunFirstErrorByJobOrder checks the reported error is the first failing
// job in job order, not in completion order.
func TestRunFirstErrorByJobOrder(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	jobs := []Job[int]{
		{Key: "ok", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "a", Run: func(context.Context, int64) (int, error) {
			time.Sleep(20 * time.Millisecond) // finishes after b
			return 0, errA
		}},
		{Key: "b", Run: func(context.Context, int64) (int, error) { return 0, errB }},
	}
	_, err := Run(context.Background(), jobs, Options{Parallelism: 3})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the job-order-first error %v", err, errA)
	}
}

// TestExplicitSeedOverride checks each job's own seed both reaches Run and
// is the seed recorded in the result, whatever the other jobs carry — the
// recorded seed is always the seed that actually ran.
func TestExplicitSeedOverride(t *testing.T) {
	seeds := []int64{12345, 12345, -3, 0}
	jobs := make([]Job[int64], len(seeds))
	for i, s := range seeds {
		jobs[i] = Job[int64]{
			Key:  strconv.Itoa(i),
			Seed: s,
			Run:  func(_ context.Context, seed int64) (int64, error) { return seed, nil },
		}
	}
	res, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range seeds {
		if res[i].Seed != want || res[i].Value != want {
			t.Fatalf("job %d: recorded %d, Run saw %d, want %d", i, res[i].Seed, res[i].Value, want)
		}
	}
}

// TestProgressSerialisedAndComplete checks every job reports progress exactly
// once and Done reaches Total.
func TestProgressSerialisedAndComplete(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	maxDone := 0
	_, err := Run(context.Background(), jitterJobs(25, 0), Options{
		Parallelism: 5,
		Progress: func(p Progress) {
			// Already serialised by the runner; the map write would race
			// otherwise and -race would catch it.
			mu.Lock()
			seen[p.Key]++
			if p.Done > maxDone {
				maxDone = p.Done
			}
			if p.Total != 25 {
				t.Errorf("Total = %d, want 25", p.Total)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 25 || maxDone != 25 {
		t.Fatalf("progress incomplete: %d keys, maxDone %d", len(seen), maxDone)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("job %s reported progress %d times", k, n)
		}
	}
}

// TestWriteCSV checks the CSV shape, including error rows.
func TestWriteCSV(t *testing.T) {
	results := []Result[int]{
		{Key: "a", Seed: 1, Value: 42},
		{Key: "b", Seed: 2, Err: errors.New("boom")},
	}
	var buf bytes.Buffer
	err := WriteCSV(&buf, results, []string{"answer"}, func(v int) []string {
		return []string{strconv.Itoa(v)}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "key,seed,error,answer\na,1,,42\nb,2,boom,\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRunCancelledStopsEarly is the cancellation contract: once ctx is
// cancelled no further job starts, jobs that never started carry ctx's error,
// and Run returns it.
func TestRunCancelledStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const total = 64
	var startedJobs atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job[int], total)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: strconv.Itoa(i),
			Run: func(ctx context.Context, _ int64) (int, error) {
				startedJobs.Add(1)
				<-release
				return i, ctx.Err()
			},
		}
	}
	go func() {
		// Let the two workers pick up their first jobs, then cancel and
		// unblock them.
		for startedJobs.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	results, err := Run(ctx, jobs, Options{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := int(startedJobs.Load()); n >= total {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
	if len(results) != total {
		t.Fatalf("got %d results, want one per job", len(results))
	}
	unstarted := 0
	for i, r := range results {
		if r.Key != jobs[i].Key {
			t.Fatalf("result %d has key %q, want %q", i, r.Key, jobs[i].Key)
		}
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			unstarted++
		}
	}
	if unstarted == 0 {
		t.Fatal("no job result carries the cancellation error")
	}
}

// TestRunEmpty checks the degenerate sweep.
func TestRunEmpty(t *testing.T) {
	results, err := Run[int](context.Background(), nil, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty sweep: %v, %d results", err, len(results))
	}
}
