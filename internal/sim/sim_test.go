package sim

import (
	"testing"
	"testing/quick"
)

func TestNsToCycles(t *testing.T) {
	cases := []struct {
		ns   float64
		want Cycles
	}{
		{0, 0},
		{-5, 0},
		{1, 3},
		{40, 120},
		{50, 150},
		{20, 60},
		{10, 30},
		{5, 15},
	}
	for _, c := range cases {
		if got := NsToCycles(c.ns); got != c.want {
			t.Errorf("NsToCycles(%v) = %v, want %v", c.ns, got, c.want)
		}
	}
}

func TestCyclesToNsRoundTrip(t *testing.T) {
	for _, ns := range []float64{1, 5, 10, 20, 30, 40, 50, 100} {
		got := CyclesToNs(NsToCycles(ns))
		if diff := got - ns; diff > 0.2 || diff < -0.2 {
			t.Errorf("round trip %vns -> %vns", ns, got)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100)
	if tm.Add(50) != 150 {
		t.Error("Add failed")
	}
	if tm.Sub(40) != 60 {
		t.Error("Sub failed")
	}
	if Max(Time(3), Time(7)) != 7 || Max(Time(7), Time(3)) != 7 {
		t.Error("Max failed")
	}
}

func TestTimeSubPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative duration")
		}
	}()
	Time(5).Sub(Time(10))
}

func TestResourceInfinite(t *testing.T) {
	r := NewResource("inf", 0)
	start, done := r.Acquire(100, 1<<20)
	if start != 100 || done != 100 {
		t.Errorf("infinite resource should not delay: start=%v done=%v", start, done)
	}
	if !r.Infinite() {
		t.Error("Infinite() = false")
	}
}

func TestResourceServiceTime(t *testing.T) {
	r := NewResource("chan", 4) // 4 bytes/cycle
	_, done := r.Acquire(0, 64)
	if done != 16 {
		t.Errorf("done = %v, want 16", done)
	}
	// Second transfer queues behind the first.
	start, done2 := r.Acquire(0, 64)
	if start != 16 || done2 != 32 {
		t.Errorf("queued transfer start=%v done=%v, want 16/32 (a 16-cycle wait)", start, done2)
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource("chan", 4)
	r.Acquire(0, 64) // busy until 16
	start, done := r.Acquire(100, 64)
	if start != 100 || done != 116 {
		t.Errorf("transfer after idle gap start=%v done=%v", start, done)
	}
}

func TestResourcePeekDoesNotReserve(t *testing.T) {
	r := NewResource("chan", 4)
	d1 := r.Peek(0, 64)
	d2 := r.Peek(0, 64)
	if d1 != d2 {
		t.Errorf("Peek reserved state: %v vs %v", d1, d2)
	}
	if d1 != 16 {
		t.Errorf("Peek = %v, want 16", d1)
	}
}

func TestResourceZeroByteTransfer(t *testing.T) {
	r := NewResource("chan", 4)
	_, done := r.Acquire(10, 0)
	if done != 10 {
		t.Errorf("zero-byte transfer should take no time, done=%v", done)
	}
}

func TestResourceNegativePanics(t *testing.T) {
	r := NewResource("chan", 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative bytes")
		}
	}()
	r.Acquire(0, -1)
}

func TestResourceReset(t *testing.T) {
	r := NewResource("chan", 1)
	r.Acquire(0, 100) // busy until 100
	r.Reset()
	if start, done := r.Acquire(0, 100); start != 0 || done != 100 {
		t.Errorf("transfer after Reset start=%v done=%v, want 0/100: occupancy survived", start, done)
	}
}

func TestGBsToBytesPerCycle(t *testing.T) {
	// 12.8 GB/s at 3 GHz is 4.266... bytes per cycle.
	got := GBsToBytesPerCycle(12.8)
	if got < 4.2 || got > 4.3 {
		t.Errorf("GBsToBytesPerCycle(12.8) = %v", got)
	}
	// 25.6 GB/s is twice that.
	if g2 := GBsToBytesPerCycle(25.6); g2 < 2*got-0.01 || g2 > 2*got+0.01 {
		t.Errorf("bandwidth scaling not linear: %v vs %v", g2, got)
	}
}

// Property: a resource never starts a transfer before it is requested and
// never completes it before it starts; completions of non-empty transfers are
// monotone when requests arrive in non-decreasing time order (zero-byte
// transfers complete immediately and may therefore "overtake" queued work).
func TestResourceMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16, rate uint8) bool {
		r := NewResource("p", float64(rate%16)+1)
		now := Time(0)
		var lastDone Time
		for i, s := range sizes {
			if i > 50 {
				break
			}
			now = now.Add(Cycles(s % 7))
			bytes := int(s % 2048)
			start, done := r.Acquire(now, bytes)
			if start < now || done < start {
				return false
			}
			if bytes == 0 {
				continue
			}
			if done < lastDone {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: with out-of-order request times (the machine model's atomic
// transactions reserve response legs in the future), a transfer requested at
// an earlier time is never forced to queue behind one reserved far in the
// future — its queueing delay is bounded by the total service time of the
// work reserved so far.
func TestResourceOutOfOrderBounded(t *testing.T) {
	r := NewResource("p", 8)
	// A transaction reserves its response leg 400 cycles in the future.
	r.Acquire(400, 80)
	// Another transaction's request leg at time 10 must not wait for it.
	start, done := r.Acquire(10, 80)
	if start != 10 {
		t.Errorf("start = %v, want 10 (no queueing behind a future reservation)", start)
	}
	if done != 20 {
		t.Errorf("done = %v, want 20", done)
	}
}
