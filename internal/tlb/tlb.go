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
	stats ClassifierStats
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
		c.stats.PrivatePages++
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
			c.stats.MigrationShootdowns++
			return AccessResult{Class: ClassPrivate, Shootdown: true}
		}
		return AccessResult{Class: ClassPrivate}
	}
	// A different thread: active sharing. Re-classify; the owner is trapped
	// so its pending writes to the page are flushed, but the page is not shot
	// down.
	e.class = ClassShared
	c.stats.PrivatePages--
	c.stats.SharedPages++
	c.stats.Reclassifications++
	c.stats.OwnerFlushes++
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
func (c *Classifier) Pages() int { return int(c.stats.PrivatePages + c.stats.SharedPages) }

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
	// Consecutive accesses mostly stay on one page: a hit on the MRU entry
	// needs neither the map nor a list move.
	if t.head != nil && t.head.page == p {
		t.stats.Hits++
		return true
	}
	if n, ok := t.entries[p]; ok {
		t.stats.Hits++
		t.unlink(n)
		t.pushFront(n)
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
