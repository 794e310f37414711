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
// Each core also has a small TLB that caches classifications so the
// experiments can report TLB miss rates; classification decisions themselves
// live in the shared Classifier (the simulated OS page table extension).
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

// ClassifierStats counts classification activity.
type ClassifierStats struct {
	// PrivatePages and SharedPages are the current counts per class.
	PrivatePages uint64
	SharedPages  uint64
	// Reclassifications counts private→shared transitions.
	Reclassifications uint64
	// OwnerFlushes counts the traps of the owning thread performed during a
	// private→shared transition to flush its pending writes.
	OwnerFlushes uint64
	// MigrationShootdowns counts pages shot down from the hierarchy because
	// the owning thread migrated to a different core.
	MigrationShootdowns uint64
	// Accesses counts classification queries.
	Accesses uint64
}

type pageClass struct {
	class Class
	// ownerThread is the thread id that first touched the page.
	ownerThread int
	// ownerCore is the core the owner thread was last seen on.
	ownerCore int
}

// Classifier is the OS-level page classification table (the page-table
// extension of §IV-D). Entries are stored by value: the table is touched for
// every simulated access, and pointer entries would cost one allocation per
// classified page on every (re)run of a machine.
type Classifier struct {
	pages map[addr.Page]pageClass
	stats ClassifierStats
}

// NewClassifier builds an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{pages: make(map[addr.Page]pageClass)}
}

// Stats returns a snapshot of the counters.
func (c *Classifier) Stats() ClassifierStats { return c.stats }

// ResetStats clears event counters but keeps current page classifications and
// the page counts per class (which describe state, not events).
func (c *Classifier) ResetStats() {
	c.stats.Reclassifications = 0
	c.stats.OwnerFlushes = 0
	c.stats.MigrationShootdowns = 0
	c.stats.Accesses = 0
}

// Reset forgets every page classification and clears all counters, returning
// the classifier to the just-constructed state (used when a machine is reused
// across runs).
func (c *Classifier) Reset() {
	clear(c.pages)
	c.stats = ClassifierStats{}
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
	c.stats.Accesses++
	e, ok := c.pages[p]
	if !ok {
		c.pages[p] = pageClass{class: ClassPrivate, ownerThread: thread, ownerCore: core}
		c.stats.PrivatePages++
		return AccessResult{Class: ClassPrivate, FirstTouch: true}
	}
	if e.class == ClassShared {
		return AccessResult{Class: ClassShared}
	}
	// Private page.
	if e.ownerThread == thread {
		if e.ownerCore != core {
			// Thread migration: keep the page private, move ownership to the
			// new core and shoot the page down from the hierarchy.
			e.ownerCore = core
			c.pages[p] = e
			c.stats.MigrationShootdowns++
			return AccessResult{Class: ClassPrivate, Shootdown: true}
		}
		return AccessResult{Class: ClassPrivate}
	}
	// A different thread: active sharing. Re-classify; the owner is trapped
	// so its pending writes to the page are flushed, but the page is not shot
	// down.
	e.class = ClassShared
	c.pages[p] = e
	c.stats.PrivatePages--
	c.stats.SharedPages++
	c.stats.Reclassifications++
	c.stats.OwnerFlushes++
	return AccessResult{Class: ClassShared, Reclassified: true}
}

// Classify returns the current classification of page p without recording an
// access. Unclassified pages report ClassShared (the conservative answer: a
// broadcast will be sent even though it may not be needed).
func (c *Classifier) Classify(p addr.Page) Class {
	if e, ok := c.pages[p]; ok {
		return e.class
	}
	return ClassShared
}

// IsPrivateTo reports whether page p is currently classified private and
// owned by the given thread. This is the exact predicate the C3D directory
// uses to elide a broadcast on a GetX carrying the private bit.
func (c *Classifier) IsPrivateTo(p addr.Page, thread int) bool {
	e, ok := c.pages[p]
	return ok && e.class == ClassPrivate && e.ownerThread == thread
}

// Pages returns the number of classified pages.
func (c *Classifier) Pages() int { return len(c.pages) }

// TLBStats counts per-core TLB activity.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses), or 0 when never accessed.
func (s TLBStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// TLB is one core's translation lookaside buffer, modelled as a
// fully-associative LRU array of page entries caching the classification bit.
// Capacity-induced misses are what trigger the OS handler in real hardware;
// here they are counted for reporting while classification correctness is
// delegated to the shared Classifier.
//
// The implementation keeps an intrusive doubly-linked LRU list indexed by a
// map, so lookups and replacements are O(1) — the TLB sits on the simulator's
// per-access hot path.
type TLB struct {
	capacity int
	entries  map[addr.Page]*tlbNode
	head     *tlbNode // most recently used
	tail     *tlbNode // least recently used
	// slab preallocates every node the TLB can ever hold; free chains nodes
	// returned by Invalidate. Steady-state misses therefore allocate nothing:
	// a full TLB recycles the evicted LRU node in place.
	slab  []tlbNode
	used  int
	free  *tlbNode
	stats TLBStats
}

type tlbNode struct {
	page       addr.Page
	prev, next *tlbNode
}

// allocNode takes a node from the free-list or the slab; the caller
// guarantees capacity (it evicts before calling when full).
func (t *TLB) allocNode() *tlbNode {
	if n := t.free; n != nil {
		t.free = n.next
		n.next = nil
		return n
	}
	n := &t.slab[t.used]
	t.used++
	return n
}

func (t *TLB) freeNode(n *tlbNode) {
	n.prev = nil
	n.next = t.free
	t.free = n
}

// NewTLB builds a TLB with the given number of entries (a typical 64-entry
// second-level data TLB if zero or negative).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 64
	}
	return &TLB{
		capacity: capacity,
		entries:  make(map[addr.Page]*tlbNode, capacity),
		slab:     make([]tlbNode, capacity),
	}
}

// Capacity returns the TLB's entry count.
func (t *TLB) Capacity() int { return t.capacity }

// Stats returns a snapshot of the hit/miss counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// ResetStats clears the counters without dropping cached translations.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

// Reset drops every cached translation and clears the counters, returning the
// TLB to the just-constructed state. The slab is zeroed so recycled nodes
// carry no stale list links.
func (t *TLB) Reset() {
	clear(t.entries)
	clear(t.slab)
	t.head, t.tail, t.free = nil, nil, nil
	t.used = 0
	t.stats = TLBStats{}
}

func (t *TLB) unlink(n *tlbNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *TLB) pushFront(n *tlbNode) {
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

// Access looks up page p, returning true on a hit. On a miss the page is
// installed, evicting the least recently used entry if the TLB is full.
func (t *TLB) Access(p addr.Page) bool {
	if n, ok := t.entries[p]; ok {
		t.stats.Hits++
		if t.head != n {
			t.unlink(n)
			t.pushFront(n)
		}
		return true
	}
	t.stats.Misses++
	var n *tlbNode
	if len(t.entries) >= t.capacity {
		// Recycle the evicted LRU node instead of allocating.
		n = t.tail
		t.unlink(n)
		delete(t.entries, n.page)
	} else {
		n = t.allocNode()
	}
	n.page = p
	t.entries[p] = n
	t.pushFront(n)
	return false
}

// Invalidate removes page p (a shootdown) and reports whether it was present.
func (t *TLB) Invalidate(p addr.Page) bool {
	if n, ok := t.entries[p]; ok {
		t.unlink(n)
		delete(t.entries, p)
		t.freeNode(n)
		return true
	}
	return false
}

// Size returns the number of resident translations.
func (t *TLB) Size() int { return len(t.entries) }
