// Package coherence provides the vocabulary and bookkeeping structures shared
// by every coherence protocol engine in the simulator: MSI line states, the
// socket-grain sharer set, and the global-directory structures (sparse and
// full).
//
// The package deliberately contains no timing: protocol engines (in
// internal/machine and internal/core) decide which messages travel where and
// ask the interconnect and memory models what that costs. This keeps the
// correctness-relevant state transitions testable in isolation.
package coherence

import (
	"fmt"

	"c3d/internal/cache"
)

// Line-level MSI states stored in cache.Line.State. Every cache in the
// hierarchy (L1, LLC, DRAM cache) uses this encoding so that protocol engines
// can probe any level without translation.
const (
	// LineInvalid means the block is not present (same as cache.StateInvalid).
	LineInvalid cache.State = 0
	// LineShared means the block is present read-only and memory is up to
	// date unless some other cache holds it Modified.
	LineShared cache.State = 1
	// LineModified means the block is present with write permission and may
	// be dirty with respect to memory.
	LineModified cache.State = 2
)

// DirState is the stable state of a global-directory entry. The C3D global
// directory (Fig. 5 of the paper) and the baseline/full directories all use
// the same three stable states; what differs between designs is which caches
// an entry covers and what an absent entry (Invalid) implies.
type DirState uint8

const (
	// DirInvalid: no directory entry. In an inclusive directory this means
	// the block is uncached; in C3D's non-inclusive directory it only means
	// the block is not cached in any on-chip cache and memory is not stale
	// (clean DRAM caches may still hold copies).
	DirInvalid DirState = iota
	// DirShared: one or more sockets hold the block read-only; the sharing
	// vector is a superset of the true sharers (silent evictions allowed).
	DirShared
	// DirModified: exactly one socket holds the block with write permission
	// in its on-chip hierarchy; memory may be stale.
	DirModified
)

func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "I"
	case DirShared:
		return "S"
	case DirModified:
		return "M"
	default:
		return fmt.Sprintf("DirState(%d)", uint8(s))
	}
}
