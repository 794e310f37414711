package tlb

import (
	"math/rand"
	"testing"

	"c3d/internal/addr"
)

// TestDenseClassifierMatchesMap drives a classifier with a dense index and
// a map-only one through the same random sequence — pages on both sides of
// the span and migrations — and requires every answer and the page count to
// agree at every step.
func TestDenseClassifierMatchesMap(t *testing.T) {
	const span = 64
	rng := rand.New(rand.NewSource(7))
	dense, ref := NewClassifier(), NewClassifier()
	dense.SetSpan(span)
	for step := 0; step < 20000; step++ {
		// Pages up to three spans out, so a quarter or more of the traffic
		// takes the map fallback.
		p := addr.Page(rng.Intn(3 * span))
		thread := rng.Intn(4)
		core := thread
		if rng.Intn(16) == 0 {
			core = 4 + rng.Intn(4) // a migration
		}
		switch op := rng.Intn(7); {
		case op < 5:
			if got, want := dense.Access(p, thread, core), ref.Access(p, thread, core); got != want {
				t.Fatalf("step %d: Access(%d, %d, %d) = %+v, want %+v", step, p, thread, core, got, want)
			}
		case op == 5:
			if got, want := dense.Classify(p), ref.Classify(p); got != want {
				t.Fatalf("step %d: Classify(%d) = %v, want %v", step, p, got, want)
			}
		default:
			if got, want := dense.IsPrivateTo(p, thread), ref.IsPrivateTo(p, thread); got != want {
				t.Fatalf("step %d: IsPrivateTo(%d, %d) = %v, want %v", step, p, thread, got, want)
			}
		}
		if got, want := dense.Pages(), ref.Pages(); got != want {
			t.Fatalf("step %d: Pages = %d, want %d", step, got, want)
		}
	}
}
