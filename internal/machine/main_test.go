package machine

import (
	"testing"

	"c3d/internal/leakcheck"
)

// TestMain fails the suite if any test leaves a module goroutine behind:
// RunSource's trace producers must all be joined before it returns, after a
// warm-up limit, a sampled run, a reader error or a cancel alike.
func TestMain(m *testing.M) { leakcheck.Main(m) }
