package coherence

import (
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func newUnboundedDir() *Directory {
	return NewDirectory(DirConfig{Name: "test-full"})
}

func newSparseDir(entries, ways int) *Directory {
	return NewDirectory(DirConfig{Name: "test-sparse", Entries: entries, Ways: ways})
}

func TestDirectoryUnboundedBasics(t *testing.T) {
	d := newUnboundedDir()
	b := addr.Block(42)
	if _, ok := d.Lookup(b); ok {
		t.Fatal("empty directory should miss")
	}
	recall := d.Update(b, Entry{State: DirModified, Owner: 2, Sharers: NewSharerSet(2)})
	if recall.Valid {
		t.Fatal("unbounded directory must never recall")
	}
	e, ok := d.Lookup(b)
	if !ok || e.State != DirModified || e.Owner != 2 {
		t.Fatalf("Lookup = %+v, %v; want Modified owner 2", e, ok)
	}
	if !d.Remove(b) {
		t.Fatal("Remove should report the entry was present")
	}
	if _, ok := d.Lookup(b); ok {
		t.Fatal("entry should be gone after Remove")
	}
	if d.Remove(b) {
		t.Fatal("second Remove should report absence")
	}
}

func TestStateNames(t *testing.T) {
	if DirInvalid.String() != "I" || DirShared.String() != "S" || DirModified.String() != "M" {
		t.Error("unexpected DirState names")
	}
}

func TestDirectoryUpdateInvalidRemoves(t *testing.T) {
	d := newUnboundedDir()
	b := addr.Block(7)
	d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(1)})
	d.Update(b, Entry{State: DirInvalid})
	if _, ok := d.Probe(b); ok {
		t.Fatal("updating to DirInvalid should remove the entry")
	}
}

func TestDirectorySparseRecall(t *testing.T) {
	// 1 set x 2 ways: the third distinct block must evict the LRU entry.
	d := newSparseDir(2, 2)
	r1 := d.Update(addr.Block(0), Entry{State: DirShared, Sharers: NewSharerSet(0)})
	r2 := d.Update(addr.Block(1), Entry{State: DirShared, Sharers: NewSharerSet(1)})
	if r1.Valid || r2.Valid {
		t.Fatal("filling free ways should not recall")
	}
	// Touch block 0 so block 1 becomes LRU.
	if _, ok := d.Lookup(addr.Block(0)); !ok {
		t.Fatal("block 0 should be present")
	}
	r3 := d.Update(addr.Block(2), Entry{State: DirModified, Owner: 3, Sharers: NewSharerSet(3)})
	if !r3.Valid {
		t.Fatal("full set should force a recall")
	}
	if r3.Block != addr.Block(1) {
		t.Errorf("recalled block = %d, want 1 (the LRU)", r3.Block)
	}
	// The new entry must be present, the recalled one absent.
	if _, ok := d.Probe(addr.Block(2)); !ok {
		t.Error("newly allocated entry missing")
	}
	if _, ok := d.Probe(addr.Block(1)); ok {
		t.Error("recalled entry still present")
	}
}

func TestDirectorySparseUpdateInPlace(t *testing.T) {
	d := newSparseDir(2, 2)
	b := addr.Block(5)
	d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0)})
	recall := d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0, 1)})
	if recall.Valid {
		t.Fatal("in-place update should not recall")
	}
	e, _ := d.Probe(b)
	if e.Sharers != NewSharerSet(0, 1) {
		t.Errorf("sharers = %v, want {0,1}", e.Sharers)
	}
	if d.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", d.Entries())
	}
}

func TestDirectorySetIndexing(t *testing.T) {
	// 4 sets x 1 way: blocks differing in the low 2 bits map to different
	// sets and never evict each other.
	d := newSparseDir(4, 1)
	for b := addr.Block(0); b < 4; b++ {
		if r := d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0)}); r.Valid {
			t.Fatalf("block %d should map to its own set", b)
		}
	}
	if d.Entries() != 4 {
		t.Fatalf("Entries = %d, want 4", d.Entries())
	}
	// Block 4 maps to the same set as block 0 and must recall it.
	r := d.Update(addr.Block(4), Entry{State: DirShared, Sharers: NewSharerSet(1)})
	if !r.Valid || r.Block != addr.Block(0) {
		t.Fatalf("recall = %+v, want recall of block 0", r)
	}
}

// TestDirectoryReadsAllocateNothing checks that Lookup, Probe and Remove on
// a fresh sparse directory leave every set unallocated, and that Update
// allocates only the set it writes, growing it one way at a time.
func TestDirectoryReadsAllocateNothing(t *testing.T) {
	d := newSparseDir(64*32, 32)
	for b := addr.Block(0); b < 4096; b++ {
		d.Lookup(b)
		d.Probe(b)
		d.Remove(b)
	}
	for s, set := range d.sets {
		if set != nil {
			t.Fatalf("set %d allocated by a read: %d ways", s, len(set))
		}
	}
	d.Update(5, Entry{State: DirShared, Sharers: NewSharerSet(0)})
	d.Update(5, Entry{State: DirModified, Owner: 1, Sharers: NewSharerSet(1)})
	for s, set := range d.sets {
		want := 0
		if s == d.index(5) {
			want = 1
		}
		if len(set) != want {
			t.Errorf("set %d has %d ways, want %d", s, len(set), want)
		}
	}
}

func TestDirectoryInvalidGeometryPanics(t *testing.T) {
	for _, cfg := range []DirConfig{
		{Name: "bad-ways", Entries: 8, Ways: 0},
		{Name: "bad-div", Entries: 7, Ways: 2},
		{Name: "bad-pow2", Entries: 12, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDirectory(%+v) should panic", cfg)
				}
			}()
			NewDirectory(cfg)
		}()
	}
}

// Property: for an unbounded directory, Update followed by Lookup returns the
// stored entry, regardless of the block or entry contents.
func TestDirectoryUpdateLookupProperty(t *testing.T) {
	d := newUnboundedDir()
	f := func(blockRaw uint32, stateRaw uint8, owner uint8, sharersRaw uint64) bool {
		b := addr.Block(blockRaw)
		state := DirState(stateRaw%2) + DirShared // DirShared or DirModified
		e := Entry{State: state, Owner: int(owner % 4), Sharers: SharerSet(sharersRaw & 0xF)}
		d.Update(b, e)
		got, ok := d.Lookup(b)
		return ok && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a sparse directory never holds more valid entries than its
// configured capacity, no matter the access pattern.
func TestDirectorySparseCapacityProperty(t *testing.T) {
	f := func(blocks []uint16) bool {
		d := newSparseDir(16, 4)
		for _, raw := range blocks {
			d.Update(addr.Block(raw), Entry{State: DirShared, Sharers: NewSharerSet(int(raw) % 4)})
		}
		return d.Entries() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
