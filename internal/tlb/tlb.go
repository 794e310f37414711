// Package tlb implements the private/shared page classification mechanism of
// §IV-D of the C3D paper. Page table entries are extended with the owner
// thread's id and a classification bit; the OS maintains them on TLB misses:
//
//   - first access: the page is marked private and the accessing thread
//     becomes its owner;
//   - a later access by a different thread re-classifies the page as shared
//     (the owner is trapped so pending writes are flushed, but the page does
//     not have to be shot down);
//   - an access by the same thread from a different core (thread migration)
//     keeps the page private but updates the owner core and shoots the page
//     down from the memory hierarchy.
//
// C3D consults the classification on write misses: a GetX for a block of a
// private page can skip the broadcast invalidation of remote DRAM caches,
// because no other thread can have cached it.
//
// The Classifier is that page-table extension. The per-core TLBs that cache
// it in hardware change no latency and no decision in this model, so they
// are not simulated.
package tlb

import (
	"fmt"

	"c3d/internal/addr"
)

// Class is a page's sharing classification.
type Class uint8

const (
	// ClassPrivate means only the owner thread has accessed the page.
	ClassPrivate Class = iota
	// ClassShared means at least two distinct threads have accessed the
	// page.
	ClassShared
)

func (c Class) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassShared:
		return "shared"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

type pageClass struct {
	class Class
	// set marks an entry that holds a classified page; a zero entry (an
	// empty dense slot or a map miss) is an unclassified one.
	set bool
	// ownerThread is the thread id that first touched the page.
	ownerThread int32
	// ownerCore is the core the owner thread was last seen on.
	ownerCore int32
}

// maxDenseSpan caps the dense index at 1M pages (4 GiB of simulated memory,
// 12 MiB of index); a larger span keeps every page in the map.
const maxDenseSpan = 1 << 20

// Classifier is the OS-level page classification table (the page-table
// extension of §IV-D). Entries are stored by value: the table is touched for
// every simulated access, and pointer entries would cost one allocation per
// classified page on every (re)run of a machine.
//
// Pages below the span set by SetSpan live in a dense slice indexed by page
// number, so the per-access lookup is an array load; every other page lives
// in a map. Which store holds a page never changes an answer.
type Classifier struct {
	dense []pageClass
	pages map[addr.Page]pageClass
	// classified counts the pages with an entry.
	classified int
}

// NewClassifier builds an empty classifier with no span: every page lives
// in the map until SetSpan sizes the dense index.
func NewClassifier() *Classifier {
	return &Classifier{pages: make(map[addr.Page]pageClass)}
}

// SetSpan sizes the dense index for the pages below n; 0 (or a span above
// the cap) keeps every page in the map. Call it on a new classifier, before
// any page is classified: the machine does so once, before its one run.
func (c *Classifier) SetSpan(n uint64) {
	if n > maxDenseSpan {
		n = 0
	}
	c.dense = make([]pageClass, n)
}

// AccessResult describes what happened on a classification query.
type AccessResult struct {
	Class Class
	// FirstTouch reports that the page was previously unclassified.
	FirstTouch bool
	// Reclassified reports a private→shared transition caused by this
	// access.
	Reclassified bool
	// Shootdown reports that the page had to be shot down because the owner
	// thread migrated cores.
	Shootdown bool
}

// Access classifies an access to page p by the given thread running on the
// given core and returns the resulting classification. It implements the OS
// TLB-miss handler behaviour described in §IV-D.
func (c *Classifier) Access(p addr.Page, thread, core int) AccessResult {
	if uint64(p) < uint64(len(c.dense)) {
		return c.access(&c.dense[p], thread, core)
	}
	e := c.pages[p]
	res := c.access(&e, thread, core)
	if res.FirstTouch || res.Reclassified || res.Shootdown {
		c.pages[p] = e
	}
	return res
}

// access applies an access to page entry e in place; only a first touch, a
// reclassification or a shootdown changes it.
func (c *Classifier) access(e *pageClass, thread, core int) AccessResult {
	if !e.set {
		*e = pageClass{class: ClassPrivate, set: true, ownerThread: int32(thread), ownerCore: int32(core)}
		c.classified++
		return AccessResult{Class: ClassPrivate, FirstTouch: true}
	}
	if e.class == ClassShared {
		return AccessResult{Class: ClassShared}
	}
	// Private page.
	if int(e.ownerThread) == thread {
		if int(e.ownerCore) != core {
			// Thread migration: keep the page private, move ownership to the
			// new core and shoot the page down from the hierarchy.
			e.ownerCore = int32(core)
			return AccessResult{Class: ClassPrivate, Shootdown: true}
		}
		return AccessResult{Class: ClassPrivate}
	}
	// A different thread: active sharing. Re-classify; the owner is trapped
	// so its pending writes to the page are flushed, but the page is not shot
	// down.
	e.class = ClassShared
	return AccessResult{Class: ClassShared, Reclassified: true}
}

// lookup returns page p's entry; an unclassified page's is the zero entry.
func (c *Classifier) lookup(p addr.Page) pageClass {
	if uint64(p) < uint64(len(c.dense)) {
		return c.dense[p]
	}
	return c.pages[p]
}

// Classify returns the current classification of page p without recording an
// access. Unclassified pages report ClassShared (the conservative answer: a
// broadcast will be sent even though it may not be needed).
//
//c3dlint:allow unused(the classification the classifier tests and TestDenseClassifierMatchesMap compare)
func (c *Classifier) Classify(p addr.Page) Class {
	if e := c.lookup(p); e.set {
		return e.class
	}
	return ClassShared
}

// IsPrivateTo reports whether page p is currently classified private and
// owned by the given thread. This is the exact predicate the C3D directory
// uses to elide a broadcast on a GetX carrying the private bit.
func (c *Classifier) IsPrivateTo(p addr.Page, thread int) bool {
	e := c.lookup(p)
	return e.set && e.class == ClassPrivate && int(e.ownerThread) == thread
}

// Pages returns the number of classified pages.
//
//c3dlint:allow unused(the page count TestDenseClassifierMatchesMap compares between the dense index and the map)
func (c *Classifier) Pages() int { return c.classified }
