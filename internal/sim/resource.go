package sim

import "fmt"

// Resource models a bandwidth-regulated component: a DRAM channel, a DRAM
// cache channel, or an inter-socket link. Transfers occupy the resource for
// bytes/bandwidth cycles; a transfer that arrives while the resource is busy
// queues behind the in-flight ones. This is the occupancy model the C3D
// simulator uses to capture memory-controller and QPI congestion (§II-B).
//
// Because the machine model executes whole transactions atomically, a single
// transaction may reserve resources at increasing future timestamps (request
// leg now, response leg a few hundred cycles later), while another core's
// transaction reserves the same resource at an earlier absolute time shortly
// afterwards. The resource therefore keeps a short list of reservations in
// simulated-time order and places each new transfer into the earliest free
// interval at or after its arrival time, which is what an event-driven
// simulator processing the legs in true time order would do. Reservations far
// in the past (beyond any transaction's span) are pruned.
//
// Invariant: the reservations are disjoint, each has positive length, and they
// are sorted by start time — so their end times are strictly increasing too.
// Acquire only inserts a non-empty interval into a gap between its neighbours,
// and prune only removes intervals, so the invariant holds after every call.
// place and prune rely on the sorted ends: the reservations that have ended
// by any time t form a prefix of the list.
type Resource struct {
	name string
	// bytesPerCycle is the service rate. Zero means infinite bandwidth
	// (transfers never queue), which is how the Fig. 2 idealised
	// configurations are modelled.
	bytesPerCycle float64

	reservations []interval // sorted by start time, and so by end time
	maxNow       Time
	lastPrune    Time
}

type interval struct{ start, end Time }

// pruneHorizon is how far behind the latest observed request time a
// reservation must end before it can be forgotten. It only needs to exceed
// the largest span of a single transaction (a few hundred cycles); 2K cycles
// leaves a comfortable margin while keeping the reservation list short.
const pruneHorizon = 2048

// pruneInterval is how much the observed request time must advance before the
// reservation list is swept again; pruning on every acquisition would cost
// more than it saves.
const pruneInterval = 512

// NewResource builds a resource with the given service rate in bytes per
// cycle. rate <= 0 models infinite bandwidth.
func NewResource(name string, bytesPerCycle float64) *Resource {
	return &Resource{name: name, bytesPerCycle: bytesPerCycle}
}

// GBsToBytesPerCycle converts a bandwidth in GB/s into bytes per core cycle
// at the default 3 GHz clock. Table II quotes channel and link bandwidths in
// GB/s (e.g. 12.8 GB/s per memory channel, 25.6 GB/s per QPI link).
func GBsToBytesPerCycle(gbPerSec float64) float64 {
	const cyclesPerSec = DefaultCyclesPerNs * 1e9
	return gbPerSec * 1e9 / cyclesPerSec
}

// Infinite reports whether the resource models infinite bandwidth.
func (r *Resource) Infinite() bool { return r.bytesPerCycle <= 0 }

// SetInfinite switches the resource to infinite bandwidth (used by the
// idealised configurations of Fig. 2).
func (r *Resource) SetInfinite() { r.bytesPerCycle = 0 }

func (r *Resource) serviceTime(bytes int) Cycles {
	service := Cycles(float64(bytes)/r.bytesPerCycle + 0.5)
	if service == 0 && bytes > 0 {
		service = 1
	}
	return service
}

// place finds the earliest start >= now at which a transfer of the given
// service duration fits between existing reservations, returning the start
// time and the index at which the new interval should be inserted.
//
// A first-fit scan from index 0 would skip every reservation with
// end <= now and then walk the rest. Because ends are sorted, the skipped
// ones are exactly a prefix, so walking back from the tail while the
// reservation before is still live at now lands on the same first live
// index, and costs only the few live reservations instead of the long ended
// prefix. From there on start never lags a reservation's end: start is either
// now < res.end, or the previous reservation's end, which is at most this
// one's start < its end. So every reservation overlaps or lies after start,
// and the loop need not test for ones that ended before it.
func (r *Resource) place(now Time, service Cycles) (Time, int) {
	res := r.reservations
	i := len(res)
	for i > 0 && res[i-1].end > now {
		i--
	}
	start := now
	for ; i < len(res); i++ {
		if res[i].start >= start.Add(service) {
			// The transfer fits entirely before this reservation.
			return start, i
		}
		// Overlap: try after this reservation.
		start = res[i].end
	}
	return start, len(res)
}

// prune forgets the reservations that ended before the horizon. Because ends
// are sorted, they form a prefix of the list, so prune finds its length and
// shifts the rest down once.
func (r *Resource) prune() {
	var horizon Time
	if r.maxNow > pruneHorizon {
		horizon = r.maxNow - pruneHorizon
	}
	n := 0
	for n < len(r.reservations) && r.reservations[n].end < horizon {
		n++
	}
	if n > 0 {
		r.reservations = r.reservations[:copy(r.reservations, r.reservations[n:])]
	}
}

// Acquire reserves the resource for a transfer of size bytes starting no
// earlier than now. It returns the time at which the transfer starts (after
// any queueing) and the time at which it completes; callers use the returned
// completion time to accumulate latency.
func (r *Resource) Acquire(now Time, bytes int) (start, done Time) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %d on %s", bytes, r.name))
	}
	if r.Infinite() || bytes == 0 {
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
	r.reservations = append(r.reservations, interval{})
	copy(r.reservations[idx+1:], r.reservations[idx:])
	r.reservations[idx] = interval{start: start, end: done}
	return start, done
}

// Peek returns the completion time a transfer of size bytes would observe if
// issued at now, without reserving the resource.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (r *Resource) Peek(now Time, bytes int) Time {
	if r.Infinite() || bytes == 0 {
		return now
	}
	service := r.serviceTime(bytes)
	start, _ := r.place(now, service)
	return start.Add(service)
}

// Reset clears occupancy (used between the warm-up and measured phases of a
// run).
func (r *Resource) Reset() {
	r.reservations = r.reservations[:0]
	r.maxNow = 0
	r.lastPrune = 0
}
