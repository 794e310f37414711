package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// linearResource is the reference model Resource is checked against: the
// first-fit placement that scans the reservation list from index 0, the
// filtering prune, and a service time recomputed on every call. Everything
// else mirrors Resource's Acquire, Peek and Reset step for step.
type linearResource struct {
	bytesPerCycle float64
	reservations  []interval
	maxNow        Time
	lastPrune     Time
}

func (r *linearResource) infinite() bool { return r.bytesPerCycle <= 0 }

func (r *linearResource) serviceTime(bytes int) Cycles {
	service := Cycles(float64(bytes)/r.bytesPerCycle + 0.5)
	if service == 0 && bytes > 0 {
		service = 1
	}
	return service
}

func (r *linearResource) place(now Time, service Cycles) (Time, int) {
	start := now
	for i, res := range r.reservations {
		if res.end <= start {
			continue
		}
		if res.start >= start.Add(service) {
			return start, i
		}
		if res.end > start {
			start = res.end
		}
	}
	return start, len(r.reservations)
}

func (r *linearResource) prune() {
	if len(r.reservations) == 0 {
		return
	}
	var horizon Time
	if r.maxNow > pruneHorizon {
		horizon = r.maxNow - pruneHorizon
	}
	keep := r.reservations[:0]
	for _, res := range r.reservations {
		if res.end >= horizon {
			keep = append(keep, res)
		}
	}
	r.reservations = keep
}

func (r *linearResource) Acquire(now Time, bytes int) (start, done Time) {
	if r.infinite() || bytes == 0 {
		return now, now
	}
	if now > r.maxNow {
		r.maxNow = now
		if r.maxNow > r.lastPrune.Add(pruneInterval) {
			r.prune()
			r.lastPrune = r.maxNow
		}
	}
	service := r.serviceTime(bytes)
	start, idx := r.place(now, service)
	done = start.Add(service)
	r.reservations = slices.Insert(r.reservations, idx, interval{start: start, end: done})
	return start, done
}

func (r *linearResource) Peek(now Time, bytes int) Time {
	if r.infinite() || bytes == 0 {
		return now
	}
	service := r.serviceTime(bytes)
	start, _ := r.place(now, service)
	return start.Add(service)
}

func (r *linearResource) Reset() {
	r.reservations = r.reservations[:0]
	r.maxNow, r.lastPrune = 0, 0
}

// checkReservations asserts the invariant place and prune rely on: every
// reservation has positive length and each ends no later than the next one
// starts, so starts and ends are both strictly increasing.
func checkReservations(t *testing.T, r *Resource) {
	t.Helper()
	for i, res := range r.reservations {
		if res.end <= res.start {
			t.Fatalf("reservation %d [%v,%v) is empty", i, res.start, res.end)
		}
		if i > 0 && r.reservations[i-1].end > res.start {
			t.Fatalf("reservations %d [%v,%v) and %d [%v,%v) overlap or are out of order",
				i-1, r.reservations[i-1].start, r.reservations[i-1].end, i, res.start, res.end)
		}
	}
}

// TestResourceMatchesLinearOracle drives Resource and the linear reference
// with the same seeded operation sequences and requires identical answers at
// every step. Arrivals mix in-order requests, response legs reserved hundreds
// of cycles ahead, arrivals a little behind the latest request time, and
// stragglers more than pruneHorizon behind it, and arrivals on the edges the
// comparisons hinge on (a reservation's start or end, or an end exactly
// pruneHorizon back); sizes are the fabric's 16, 64 and 80 bytes plus the
// occasional zero-byte and large transfer; Peek, Reset and SetInfinite are
// interleaved.
func TestResourceMatchesLinearOracle(t *testing.T) {
	rates := []float64{0.5, 1, GBsToBytesPerCycle(12.8), GBsToBytesPerCycle(25.6), 16}
	sizes := []int{16, 64, 80, 16, 64, 80, 0, 1, 4096}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rate := rates[int(seed)%len(rates)]
		r := NewResource("link", rate)
		ref := &linearResource{bytesPerCycle: rate}
		// A third of the sequences turn the resource infinite part-way.
		infiniteAt := -1
		if seed%3 == 0 {
			infiniteAt = rng.Intn(4000)
		}
		var clock Time
		for step := 0; step < 4000; step++ {
			clock = clock.Add(Cycles(rng.Intn(12)))
			var now Time
			switch k := rng.Intn(20); {
			case k < 9:
				now = clock
			case k < 13:
				now = clock.Add(Cycles(rng.Intn(500)))
			case k < 16:
				now = clock - Time(rng.Intn(int(clock)+1)%300)
			case k < 18:
				behind := Time(pruneHorizon + rng.Intn(1500))
				if r.maxNow > behind {
					now = r.maxNow - behind
				}
			default:
				now = clock
				if n := len(r.reservations); n > 0 {
					res := r.reservations[rng.Intn(n)]
					now = []Time{res.start, res.end, res.end + pruneHorizon}[rng.Intn(3)]
				}
			}
			bytes := sizes[rng.Intn(len(sizes))]

			switch op := rng.Intn(100); {
			case step == infiniteAt:
				r.SetInfinite()
				ref.bytesPerCycle = 0
			case op < 1:
				r.Reset()
				ref.Reset()
			case op < 15:
				if got, want := r.Peek(now, bytes), ref.Peek(now, bytes); got != want {
					t.Fatalf("seed %d step %d: Peek(%v, %d) = %v, want %v", seed, step, now, bytes, got, want)
				}
			default:
				start, done := r.Acquire(now, bytes)
				wantStart, wantDone := ref.Acquire(now, bytes)
				if start != wantStart || done != wantDone {
					t.Fatalf("seed %d step %d: Acquire(%v, %d) = (%v, %v), want (%v, %v)",
						seed, step, now, bytes, start, done, wantStart, wantDone)
				}
				checkReservations(t, r)
			}
			if !slices.Equal(r.reservations, ref.reservations) {
				t.Fatalf("seed %d step %d: reservations diverged:\n got %v\nwant %v",
					seed, step, r.reservations, ref.reservations)
			}
		}
	}
}

// BenchmarkResourceAcquire measures Acquire on a saturated link: each
// transfer arrives as the previous one's service time elapses, behind a
// standing queue of about 30 live reservations, while the list also carries
// the ended ones the next prune will drop.
func BenchmarkResourceAcquire(b *testing.B) {
	b.ReportAllocs()
	const bytes, depth = 80, 30
	r := NewResource("link", GBsToBytesPerCycle(25.6))
	service := r.serviceTime(bytes)
	var now Time
	for i := 0; i < depth; i++ {
		r.Acquire(now, bytes)
	}
	// Grow the reservation list to its steady-state capacity before timing.
	for i := 0; i < 4*(pruneHorizon+pruneInterval); i++ {
		now = now.Add(service)
		r.Acquire(now, bytes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(service)
		r.Acquire(now, bytes)
	}
}
