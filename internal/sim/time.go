// Package sim provides the timing substrate for the trace-driven simulator:
// the cycle clock and bandwidth-regulated resources that turn byte counts
// into occupancy and queueing delay.
//
// Everything in the simulated machine is expressed in core cycles. The C3D
// paper models 3 GHz cores, so nanosecond parameters from Table II are
// converted with CyclesPerNs = 3.
package sim

import "fmt"

// Time is a point in simulated time, measured in core clock cycles.
type Time uint64

// Cycles is a duration in core clock cycles.
type Cycles uint64

// DefaultCyclesPerNs is the clock of the simulated cores (3 GHz per Table II).
const DefaultCyclesPerNs = 3

// NsToCycles converts a latency expressed in nanoseconds into core cycles at
// the default 3 GHz clock.
func NsToCycles(ns float64) Cycles {
	if ns <= 0 {
		return 0
	}
	return Cycles(ns*DefaultCyclesPerNs + 0.5)
}

// CyclesToNs converts a cycle count back into nanoseconds at 3 GHz.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func CyclesToNs(c Cycles) float64 {
	return float64(c) / DefaultCyclesPerNs
}

// Add returns t advanced by d cycles.
func (t Time) Add(d Cycles) Time { return t + Time(d) }

// Sub returns the duration from u to t. It panics if u is after t, because a
// negative duration always indicates a modelling bug.
func (t Time) Sub(u Time) Cycles {
	if u > t {
		panic(fmt.Sprintf("sim: negative duration: %d - %d", t, u))
	}
	return Cycles(t - u)
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func (t Time) String() string   { return fmt.Sprintf("%d cyc", uint64(t)) }
func (c Cycles) String() string { return fmt.Sprintf("%d cyc", uint64(c)) }
