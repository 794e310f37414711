package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
)

// TestDenseClassifierMatchesMap drives a classifier with a dense index and
// a map-only one through the same random sequence — pages on both sides of
// the span and migrations — and requires every answer, counter and page
// count to agree at every step.
func TestDenseClassifierMatchesMap(t *testing.T) {
	const span = 64
	rng := rand.New(rand.NewSource(7))
	dense, ref := NewClassifier(), NewClassifier()
	dense.SetSpan(span)
	check := func(step int, what string) {
		t.Helper()
		if got, want := dense.Stats(), ref.Stats(); got != want {
			t.Fatalf("step %d (%s): Stats = %+v, want %+v", step, what, got, want)
		}
		if got, want := dense.Pages(), ref.Pages(); got != want {
			t.Fatalf("step %d (%s): Pages = %d, want %d", step, what, got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		// Pages up to three spans out, so a quarter or more of the traffic
		// takes the map fallback.
		p := addr.Page(rng.Intn(3 * span))
		thread := rng.Intn(4)
		core := thread
		if rng.Intn(16) == 0 {
			core = 4 + rng.Intn(4) // a migration
		}
		switch op := rng.Intn(8); {
		case op < 5:
			if got, want := dense.Access(p, thread, core), ref.Access(p, thread, core); got != want {
				t.Fatalf("step %d: Access(%d, %d, %d) = %+v, want %+v", step, p, thread, core, got, want)
			}
		case op == 5:
			if got, want := dense.Classify(p), ref.Classify(p); got != want {
				t.Fatalf("step %d: Classify(%d) = %v, want %v", step, p, got, want)
			}
		case op == 6:
			if got, want := dense.IsPrivateTo(p, thread), ref.IsPrivateTo(p, thread); got != want {
				t.Fatalf("step %d: IsPrivateTo(%d, %d) = %v, want %v", step, p, thread, got, want)
			}
		default:
			if rng.Intn(64) == 0 {
				dense.ResetStats()
				ref.ResetStats()
			}
		}
		check(step, "op")
	}
}

// refLRU is the reference TLB model: a slice of pages, most recently used
// first.
type refLRU struct {
	capacity int
	pages    []addr.Page
	hits     uint64
	misses   uint64
}

func (r *refLRU) access(p addr.Page) bool {
	if i := slices.Index(r.pages, p); i >= 0 {
		r.hits++
		r.pages = slices.Insert(slices.Delete(r.pages, i, i+1), 0, p)
		return true
	}
	r.misses++
	if len(r.pages) == r.capacity {
		r.pages = r.pages[:len(r.pages)-1]
	}
	r.pages = slices.Insert(r.pages, 0, p)
	return false
}

func (r *refLRU) invalidate(p addr.Page) bool {
	if i := slices.Index(r.pages, p); i >= 0 {
		r.pages = slices.Delete(r.pages, i, i+1)
		return true
	}
	return false
}

// order lists the TLB's pages from most to least recently used.
func (t *TLB) order() []addr.Page {
	var out []addr.Page
	for n := t.head; n != nil; n = n.next {
		out = append(out, n.page)
	}
	return out
}

// TestTLBMatchesReferenceLRU checks the TLB, MRU shortcut included, against
// the reference LRU model on a random sequence rich in repeated pages: every
// hit, miss and invalidation must agree, and so must the full recency order
// (which fixes the eviction order).
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(11))
	tl := NewTLB(capacity)
	ref := &refLRU{capacity: capacity}
	p := addr.Page(0)
	for step := 0; step < 50000; step++ {
		// Stay on the current page half the time, as a spatial run does.
		if rng.Intn(2) == 0 {
			p = addr.Page(rng.Intn(3 * capacity))
		}
		switch {
		case rng.Intn(32) == 0:
			if got, want := tl.Invalidate(p), ref.invalidate(p); got != want {
				t.Fatalf("step %d: Invalidate(%d) = %v, want %v", step, p, got, want)
			}
		default:
			if got, want := tl.Access(p), ref.access(p); got != want {
				t.Fatalf("step %d: Access(%d) = %v, want %v", step, p, got, want)
			}
		}
		if s := tl.Stats(); s.Hits != ref.hits || s.Misses != ref.misses {
			t.Fatalf("step %d: stats %+v, want hits %d misses %d", step, s, ref.hits, ref.misses)
		}
		if got := tl.order(); !slices.Equal(got, ref.pages) {
			t.Fatalf("step %d: recency order %v, want %v", step, got, ref.pages)
		}
		if tl.Size() != len(ref.pages) {
			t.Fatalf("step %d: Size = %d, want %d", step, tl.Size(), len(ref.pages))
		}
	}
}
