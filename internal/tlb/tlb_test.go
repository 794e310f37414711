package tlb

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func TestFirstTouchClassifiesPrivate(t *testing.T) {
	c := NewClassifier()
	res := c.Access(addr.Page(1), 5, 5)
	if !res.FirstTouch || res.Class != ClassPrivate {
		t.Fatalf("first access = %+v; want first touch, private", res)
	}
	if !c.IsPrivateTo(addr.Page(1), 5) {
		t.Error("page should be private to thread 5")
	}
	if c.IsPrivateTo(addr.Page(1), 6) {
		t.Error("page should not be private to thread 6")
	}
	if c.Pages() != 1 {
		t.Errorf("Pages = %d; want 1", c.Pages())
	}
}

func TestSameThreadStaysPrivate(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(2)
	c.Access(p, 3, 3)
	res := c.Access(p, 3, 3)
	if res.Class != ClassPrivate || res.Reclassified || res.Shootdown {
		t.Errorf("repeat access by owner = %+v; want private, no events", res)
	}
}

func TestDifferentThreadReclassifiesShared(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(3)
	c.Access(p, 0, 0)
	res := c.Access(p, 1, 1)
	if res.Class != ClassShared || !res.Reclassified {
		t.Fatalf("access by a second thread = %+v; want reclassification to shared", res)
	}
	if res.Shootdown {
		t.Error("private→shared transition must not shoot the page down (§IV-D)")
	}
	if c.Pages() != 1 {
		t.Errorf("Pages = %d; want the page counted once", c.Pages())
	}
	// The page stays shared forever, even for the original owner, and is
	// reclassified only once.
	if res := c.Access(p, 0, 0); res.Class != ClassShared || res.Reclassified {
		t.Errorf("owner access after sharing = %+v; want shared, no reclassification", res)
	}
	if c.IsPrivateTo(p, 0) {
		t.Error("IsPrivateTo should be false after reclassification")
	}
}

func TestThreadMigrationShootsDown(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(4)
	c.Access(p, 7, 0)
	res := c.Access(p, 7, 2) // same thread, different core
	if res.Class != ClassPrivate || !res.Shootdown {
		t.Fatalf("migrated access = %+v; want private with shootdown", res)
	}
	// Subsequent accesses from the new core are quiet.
	res = c.Access(p, 7, 2)
	if res.Shootdown {
		t.Error("second access from the new core should not shoot down again")
	}
}

func TestClassifyUnknownPageIsShared(t *testing.T) {
	c := NewClassifier()
	if c.Classify(addr.Page(99)) != ClassShared {
		t.Error("unclassified pages must report shared (conservative)")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassPrivate.String() != "private" || ClassShared.String() != "shared" {
		t.Error("unexpected Class names")
	}
}

// Property: a page accessed by at least two distinct threads is always
// classified shared, and a page accessed by exactly one thread from one core
// is always private to that thread.
func TestClassificationProperty(t *testing.T) {
	f := func(pageRaw uint16, threadsRaw []uint8) bool {
		if len(threadsRaw) == 0 {
			return true
		}
		c := NewClassifier()
		p := addr.Page(pageRaw)
		distinct := map[int]bool{}
		for _, tr := range threadsRaw {
			thread := int(tr % 8)
			distinct[thread] = true
			c.Access(p, thread, thread)
		}
		if len(distinct) >= 2 {
			return c.Classify(p) == ClassShared
		}
		for thread := range distinct {
			return c.IsPrivateTo(p, thread)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
