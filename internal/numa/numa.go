// Package numa models the operating system's NUMA memory management as seen
// by the simulator: the page table mapping each page to its home socket, and
// the three placement policies evaluated in the paper (§V, "Memory Allocation
// Policy"):
//
//   - Interleave (INT): adjacent pages are spread round-robin across sockets.
//   - First-touch-1 (FT1): the first touch from application start places the
//     page; serial initialisation phases tend to pull everything onto one
//     socket, which is why the paper also evaluates FT2.
//   - First-touch-2 (FT2): placement is decided by the first touch inside the
//     parallel region; earlier (initialisation) touches are ignored.
//
// The home socket of a page determines which memory controller owns its data
// and which global-directory slice tracks its blocks.
package numa

import (
	"fmt"

	"c3d/internal/addr"
)

// Policy selects the page placement policy.
type Policy int

const (
	// Interleave places page p on socket p mod N.
	Interleave Policy = iota
	// FirstTouch1 places a page on the socket of the thread that touches it
	// first, counting from application start.
	FirstTouch1
	// FirstTouch2 places a page on the socket of the thread that touches it
	// first within the parallel region; initialisation-phase touches do not
	// place pages.
	FirstTouch2
)

func (p Policy) String() string {
	switch p {
	case Interleave:
		return "INT"
	case FirstTouch1:
		return "FT1"
	case FirstTouch2:
		return "FT2"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name ("INT", "FT1", "FT2", case-sensitive as
// printed by String) back into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "INT", "int", "interleave":
		return Interleave, nil
	case "FT1", "ft1":
		return FirstTouch1, nil
	case "FT2", "ft2":
		return FirstTouch2, nil
	default:
		return 0, fmt.Errorf("numa: unknown policy %q", s)
	}
}

// Policies lists every placement policy, in the order the paper introduces
// them.
//
//c3dlint:allow unused(the policy list the placement tests range over)
func Policies() []Policy { return []Policy{Interleave, FirstTouch1, FirstTouch2} }

// PageTable maps pages to home sockets. The zero value is not usable; build
// one with NewPageTable.
type PageTable struct {
	sockets int
	policy  Policy
	homes   map[addr.Page]int
	stats   Stats
}

// Stats describes the placement decisions a page table has made.
type Stats struct {
	// PagesPerSocket counts pages homed on each socket.
	PagesPerSocket []uint64
	// Placements is the total number of pages placed.
	Placements uint64
	// FallbackInterleaved counts pages that were never explicitly placed and
	// fell back to interleaving when first resolved (only possible under
	// FirstTouch2 for pages untouched in the parallel region).
	FallbackInterleaved uint64
}

// NewPageTable builds an empty page table for a machine with the given number
// of sockets and the given placement policy.
func NewPageTable(sockets int, policy Policy) *PageTable {
	if sockets <= 0 {
		panic(fmt.Sprintf("numa: invalid socket count %d", sockets))
	}
	return &PageTable{
		sockets: sockets,
		policy:  policy,
		homes:   make(map[addr.Page]int),
		stats:   Stats{PagesPerSocket: make([]uint64, sockets)},
	}
}

// Stats returns a snapshot of the placement statistics.
func (pt *PageTable) Stats() Stats {
	s := pt.stats
	s.PagesPerSocket = append([]uint64(nil), pt.stats.PagesPerSocket...)
	return s
}

// Pages returns the number of pages that have been placed.
func (pt *PageTable) Pages() int { return len(pt.homes) }

func (pt *PageTable) interleaveHome(p addr.Page) int {
	return int(uint64(p) % uint64(pt.sockets))
}

func (pt *PageTable) place(p addr.Page, socket int) {
	pt.homes[p] = socket
	pt.stats.Placements++
	pt.stats.PagesPerSocket[socket]++
}

// Touch records a memory touch of page p by a thread running on the given
// socket, during either the initialisation phase (parallel=false) or the
// parallel region (parallel=true). It places the page if the policy says this
// touch is the placing one, and returns the page's home socket if it is
// already decided (ok=false means the page has no home yet, which can only
// happen under FirstTouch2 during initialisation).
func (pt *PageTable) Touch(p addr.Page, socket int, parallel bool) (home int, ok bool) {
	if socket < 0 || socket >= pt.sockets {
		panic(fmt.Sprintf("numa: socket %d out of range [0,%d)", socket, pt.sockets))
	}
	if h, exists := pt.homes[p]; exists {
		return h, true
	}
	switch pt.policy {
	case Interleave:
		h := pt.interleaveHome(p)
		pt.place(p, h)
		return h, true
	case FirstTouch1:
		pt.place(p, socket)
		return socket, true
	case FirstTouch2:
		if !parallel {
			// Initialisation touches do not place pages under FT2.
			return 0, false
		}
		pt.place(p, socket)
		return socket, true
	default:
		panic(fmt.Sprintf("numa: unknown policy %v", pt.policy))
	}
}

// Home resolves the home socket of page p. Pages that were never placed
// (possible under FirstTouch2 when a page is only touched during
// initialisation) fall back to interleaving, and the fallback is recorded in
// the statistics.
func (pt *PageTable) Home(p addr.Page) int {
	if h, ok := pt.homes[p]; ok {
		return h
	}
	h := pt.interleaveHome(p)
	pt.place(p, h)
	pt.stats.FallbackInterleaved++
	return h
}

// HomeOfBlock resolves the home socket of the page containing block b.
func (pt *PageTable) HomeOfBlock(b addr.Block) int {
	return pt.Home(addr.PageOfBlock(b))
}
