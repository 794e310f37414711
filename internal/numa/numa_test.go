package numa

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{Interleave: "INT", FirstTouch1: "FT1", FirstTouch2: "FT2"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(p), got, want)
		}
		parsed, err := ParsePolicy(want)
		if err != nil || parsed != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", want, parsed, err, p)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy of an unknown name should fail")
	}
	if len(Policies()) != 3 {
		t.Error("Policies() should list the three paper policies")
	}
}

func TestInterleavePlacement(t *testing.T) {
	pt := NewPageTable(4, Interleave)
	for p := addr.Page(0); p < 16; p++ {
		home, ok := pt.Touch(p, 2, true)
		if !ok {
			t.Fatalf("interleave should always place page %d", p)
		}
		if want := int(p % 4); home != want {
			t.Errorf("page %d home = %d, want %d", p, home, want)
		}
	}
	s := pt.Stats()
	for sock, n := range s.PagesPerSocket {
		if n != 4 {
			t.Errorf("socket %d holds %d pages, want 4", sock, n)
		}
	}
}

func TestFirstTouch1PlacesOnFirstToucherEvenDuringInit(t *testing.T) {
	pt := NewPageTable(4, FirstTouch1)
	p := addr.Page(100)
	home, ok := pt.Touch(p, 3, false) // init-phase touch
	if !ok || home != 3 {
		t.Fatalf("FT1 init touch: home = %d, ok = %v; want 3, true", home, ok)
	}
	// A later touch from another socket does not move the page.
	home, _ = pt.Touch(p, 1, true)
	if home != 3 {
		t.Errorf("page moved to %d after later touch, want it to stay on 3", home)
	}
}

func TestFirstTouch2IgnoresInitTouches(t *testing.T) {
	pt := NewPageTable(4, FirstTouch2)
	p := addr.Page(5)
	if _, ok := pt.Touch(p, 0, false); ok {
		t.Fatal("FT2 must not place pages during initialisation")
	}
	home, ok := pt.Touch(p, 2, true)
	if !ok || home != 2 {
		t.Fatalf("FT2 parallel touch: home = %d, ok = %v; want 2, true", home, ok)
	}
}

func TestFirstTouch2FallbackInterleaves(t *testing.T) {
	pt := NewPageTable(4, FirstTouch2)
	p := addr.Page(7)
	pt.Touch(p, 1, false) // never touched in parallel phase
	home := pt.Home(p)
	if want := int(p % 4); home != want {
		t.Errorf("fallback home = %d, want interleaved %d", home, want)
	}
	if pt.Stats().FallbackInterleaved != 1 {
		t.Errorf("FallbackInterleaved = %d, want 1", pt.Stats().FallbackInterleaved)
	}
}

func TestHomeIsSticky(t *testing.T) {
	pt := NewPageTable(2, FirstTouch1)
	p := addr.Page(9)
	pt.Touch(p, 1, true)
	for i := 0; i < 5; i++ {
		if pt.Home(p) != 1 {
			t.Fatal("home changed between lookups")
		}
	}
	if pt.Pages() != 1 {
		t.Errorf("Pages = %d, want 1", pt.Pages())
	}
}

// Under FT2 an unplaced page falls back to interleaving exactly once, however
// often Home is asked.
func TestFallbackCountedOncePerPage(t *testing.T) {
	pt := NewPageTable(4, FirstTouch2)
	const pages = 10
	for p := addr.Page(0); p < pages; p++ {
		pt.Touch(p, 1, false) // initialisation only: no placement
	}
	for rep := 0; rep < 3; rep++ {
		for p := addr.Page(0); p < pages; p++ {
			for i := 0; i < 3; i++ {
				if got, want := pt.Home(p), int(p%4); got != want {
					t.Fatalf("Home(%d) = %d, want %d", p, got, want)
				}
			}
		}
	}
	if s := pt.Stats(); s.FallbackInterleaved != pages || s.Placements != pages {
		t.Errorf("FallbackInterleaved = %d, Placements = %d; want %d each",
			s.FallbackInterleaved, s.Placements, pages)
	}
}

func TestHomeOfBlockAndAddr(t *testing.T) {
	pt := NewPageTable(4, Interleave)
	a := addr.Addr(3 * addr.PageBytes) // page 3 -> socket 3
	if got := pt.Home(addr.PageOf(a)); got != 3 {
		t.Errorf("Home of the address's page = %d, want 3", got)
	}
	if got := pt.HomeOfBlock(addr.BlockOf(a)); got != 3 {
		t.Errorf("HomeOfBlock = %d, want 3", got)
	}
}

func TestFT1SerialInitImbalance(t *testing.T) {
	// A serial init phase where socket 0 touches every page leaves FT1 with
	// everything on socket 0 — the pathology the paper mentions.
	pt := NewPageTable(4, FirstTouch1)
	for p := addr.Page(0); p < 100; p++ {
		pt.Touch(p, 0, false)
	}
	s := pt.Stats()
	if s.PagesPerSocket[0] != 100 {
		t.Errorf("socket 0 holds %d pages, want all 100", s.PagesPerSocket[0])
	}
	for sock, n := range s.PagesPerSocket[1:] {
		if n != 0 {
			t.Errorf("socket %d holds %d pages, want none", sock+1, n)
		}
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	if func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		NewPageTable(0, Interleave)
		return
	}() == false {
		t.Error("NewPageTable(0, ...) should panic")
	}
	pt := NewPageTable(2, Interleave)
	if func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		pt.Touch(addr.Page(1), 5, true)
		return
	}() == false {
		t.Error("Touch with an out-of-range socket should panic")
	}
}

// Property: under every policy, once a page has a home it never changes, and
// the home is always a valid socket index.
func TestPlacementStableProperty(t *testing.T) {
	f := func(pageRaw uint16, touches []uint8) bool {
		for _, policy := range Policies() {
			pt := NewPageTable(4, policy)
			p := addr.Page(pageRaw)
			var firstHome = -1
			for _, tr := range touches {
				socket := int(tr % 4)
				parallel := tr%2 == 0
				home, ok := pt.Touch(p, socket, parallel)
				if !ok {
					continue
				}
				if home < 0 || home >= 4 {
					return false
				}
				if firstHome == -1 {
					firstHome = home
				} else if home != firstHome {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleave distributes any contiguous page range within one page
// of perfectly even.
func TestInterleaveBalanceProperty(t *testing.T) {
	f := func(startRaw uint16, countRaw uint8) bool {
		count := int(countRaw)%256 + 4
		pt := NewPageTable(4, Interleave)
		for i := 0; i < count; i++ {
			pt.Touch(addr.Page(int(startRaw)+i), 0, true)
		}
		s := pt.Stats()
		min, max := s.PagesPerSocket[0], s.PagesPerSocket[0]
		for _, n := range s.PagesPerSocket {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
