package c3d

import (
	"testing"

	"c3d/internal/leakcheck"
)

// TestMain fails the suite if any test leaves a module goroutine behind: the
// trace producers of every simulation a session runs must be joined by the
// time it returns, and so must the sweep and service goroutines.
func TestMain(m *testing.M) { leakcheck.Main(m) }
