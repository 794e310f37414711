package core

import (
	"testing"

	"c3d/internal/addr"
	"c3d/internal/coherence"
	"c3d/internal/tlb"
)

func newC3DDir(t *testing.T, sockets int) *Directory {
	t.Helper()
	return NewDirectory(DirConfig{Name: "gdir-test", Sockets: sockets})
}

func newFullDir(t *testing.T, sockets int) *Directory {
	t.Helper()
	return NewDirectory(DirConfig{Name: "gdir-full", Sockets: sockets, TrackDRAMCache: true})
}

func TestGetSInvalidServedByMemoryWithoutAllocation(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(10)
	dec := d.HandleGetS(b, 2)
	if dec.Source != FromMemory {
		t.Fatalf("Source = %v, want memory", dec.Source)
	}
	// Non-inclusive directory: GetS in Invalid must NOT allocate an entry
	// (§IV-B — this is where the storage savings come from).
	if d.Entries() != 0 {
		t.Fatalf("directory allocated %d entries on a GetS in Invalid, want 0", d.Entries())
	}
}

func TestGetXInvalidBroadcasts(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(11)
	dec := d.HandleGetX(b, 1, false)
	if !dec.Broadcast {
		t.Fatal("GetX to an untracked block must broadcast invalidations")
	}
	if !dec.Invalidate.Empty() {
		t.Errorf("precise invalidations = %v, want none (broadcast covers them)", dec.Invalidate)
	}
	if dec.Source != FromMemory {
		t.Errorf("Source = %v, want memory", dec.Source)
	}
	e, ok := d.Probe(b)
	if !ok || e.State != coherence.DirModified || e.Owner != 1 {
		t.Fatalf("directory entry after GetX = %+v, %v; want Modified owner 1", e, ok)
	}
	if d.Stats().Broadcasts != 1 {
		t.Errorf("Broadcasts = %d, want 1", d.Stats().Broadcasts)
	}
}

func TestGetXPrivatePageSkipsBroadcast(t *testing.T) {
	d := newC3DDir(t, 4)
	dec := d.HandleGetX(addr.Block(12), 0, true)
	if dec.Broadcast {
		t.Fatal("GetX to a private page must not broadcast (§IV-D)")
	}
	if s := d.Stats(); s.BroadcastsAvd != 1 || s.Broadcasts != 0 {
		t.Errorf("stats = %+v; want 1 avoided broadcast", s)
	}
}

func TestModifiedThenGetSForwardsFromOwner(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(13)
	d.HandleGetX(b, 3, false)
	dec := d.HandleGetS(b, 0)
	if dec.Source != FromOwnerLLC || dec.Owner != 3 {
		t.Fatalf("decision = %+v; want forward from owner 3", dec)
	}
	e, _ := d.Probe(b)
	if e.State != coherence.DirShared {
		t.Errorf("state after GetS = %v, want Shared", e.State)
	}
	if !e.Sharers.Contains(0) || !e.Sharers.Contains(3) {
		t.Errorf("sharers = %v, want {0,3}", e.Sharers)
	}
}

func TestSharedThenGetXInvalidatesPrecisely(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(14)
	// Socket 3 writes, sockets 0 and 1 read: directory ends in Shared{0,1,3}.
	d.HandleGetX(b, 3, false)
	d.HandleGetS(b, 0)
	d.HandleGetS(b, 1)
	dec := d.HandleGetX(b, 0, false)
	if dec.Broadcast {
		t.Fatal("a tracked Shared block must use precise invalidations, not a broadcast")
	}
	if !dec.Invalidate.Contains(1) || !dec.Invalidate.Contains(3) || dec.Invalidate.Contains(0) {
		t.Errorf("Invalidate = %v, want {1,3}", dec.Invalidate)
	}
	if dec.Source != FromMemory {
		t.Errorf("Source = %v, want memory (Shared means memory is up to date)", dec.Source)
	}
	e, _ := d.Probe(b)
	if e.State != coherence.DirModified || e.Owner != 0 {
		t.Errorf("entry = %+v, want Modified owner 0", e)
	}
}

func TestModifiedThenGetXChangesOwner(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(15)
	d.HandleGetX(b, 2, false)
	dec := d.HandleGetX(b, 1, false)
	if dec.Source != FromOwnerLLC || dec.Owner != 2 {
		t.Fatalf("decision = %+v; want data from previous owner 2", dec)
	}
	if dec.Invalidate != coherence.NewSharerSet(2) {
		t.Errorf("Invalidate = %v, want {2}", dec.Invalidate)
	}
	e, _ := d.Probe(b)
	if e.Owner != 1 {
		t.Errorf("owner = %d, want 1", e.Owner)
	}
}

func TestPutXInvalidatesEntryInBaseC3D(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(17)
	d.HandleGetX(b, 2, false)
	d.HandlePutX(b, 2)
	if _, ok := d.Probe(b); ok {
		t.Fatal("base C3D drops the entry on a write-back (Fig. 5 Modified→Invalid)")
	}
	// A subsequent write is untracked again and must broadcast.
	if dec := d.HandleGetX(b, 0, false); !dec.Broadcast {
		t.Error("write after a write-back should broadcast (entry was dropped)")
	}
}

func TestPutXKeepsEntrySharedInFullDirVariant(t *testing.T) {
	d := newFullDir(t, 4)
	b := addr.Block(18)
	d.HandleGetX(b, 2, false)
	d.HandlePutX(b, 2)
	e, ok := d.Probe(b)
	if !ok || e.State != coherence.DirShared || e.Sharers != coherence.NewSharerSet(2) {
		t.Fatalf("entry = %+v, %v; want Shared{2} (c3d-full-dir keeps tracking)", e, ok)
	}
	// With the block still tracked, a later write needs no broadcast.
	if dec := d.HandleGetX(b, 0, false); dec.Broadcast {
		t.Error("c3d-full-dir should never broadcast")
	}
}

func TestStalePutXIgnored(t *testing.T) {
	d := newC3DDir(t, 4)
	b := addr.Block(19)
	d.HandleGetX(b, 2, false)
	d.HandleGetX(b, 1, false) // ownership moves to socket 1
	d.HandlePutX(b, 2)        // stale write-back from the old owner
	e, ok := d.Probe(b)
	if !ok || e.State != coherence.DirModified || e.Owner != 1 {
		t.Fatalf("entry = %+v, %v; a stale PutX must not disturb the current owner", e, ok)
	}
}

func TestFullDirGetSAllocates(t *testing.T) {
	d := newFullDir(t, 4)
	b := addr.Block(20)
	d.HandleGetS(b, 1)
	e, ok := d.Probe(b)
	if !ok || e.State != coherence.DirShared || e.Sharers != coherence.NewSharerSet(1) {
		t.Fatalf("entry = %+v, %v; the full-dir variant must track GetS fills", e, ok)
	}
}

func TestSparseDirectoryRecalls(t *testing.T) {
	d := NewDirectory(DirConfig{Name: "sparse", Sockets: 4, Entries: 2, Ways: 2})
	d.HandleGetX(addr.Block(0), 0, false)
	d.HandleGetX(addr.Block(1), 1, false)
	dec := d.HandleGetX(addr.Block(2), 2, false)
	if !dec.Recall.Valid || dec.Recall.Block != addr.Block(0) {
		t.Fatalf("recall = %+v; a full sparse directory must recall the LRU block 0", dec.Recall)
	}
	if _, ok := d.Probe(addr.Block(0)); ok {
		t.Error("recalled block 0 is still tracked")
	}
}

func TestDirectoryPanicsOnBadSocket(t *testing.T) {
	d := newC3DDir(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range socket should panic")
		}
	}()
	d.HandleGetS(addr.Block(0), 5)
}

func TestResetStats(t *testing.T) {
	d := newC3DDir(t, 2)
	if dec := d.HandleGetX(addr.Block(1), 0, false); !dec.Broadcast || d.Stats().Broadcasts != 1 {
		t.Fatalf("GetX to an untracked block: broadcast %v, %d counted; want one", dec.Broadcast, d.Stats().Broadcasts)
	}
	d.ResetStats()
	if d.Stats() != (DirStats{}) {
		t.Error("ResetStats did not clear the broadcast counters")
	}
	if _, ok := d.Probe(addr.Block(1)); !ok {
		t.Error("ResetStats must keep the directory's entries")
	}
}

func TestBroadcastFilter(t *testing.T) {
	classifier := tlb.NewClassifier()
	// Thread 0 owns page 0 privately; page 1 is shared between threads 0, 1.
	classifier.Access(addr.Page(0), 0, 0)
	classifier.Access(addr.Page(1), 0, 0)
	classifier.Access(addr.Page(1), 1, 1)

	f := NewBroadcastFilter(classifier, true)
	privBlock := addr.Block(0)                         // page 0
	sharedBlock := addr.Block(addr.BlocksPerPage)      // page 1
	unknownBlock := addr.Block(5 * addr.BlocksPerPage) // never classified

	if !f.PagePrivate(privBlock, 0) {
		t.Error("write by the owner to a private page should skip the broadcast")
	}
	if f.PagePrivate(privBlock, 1) {
		t.Error("write by a non-owner must not skip the broadcast")
	}
	if f.PagePrivate(sharedBlock, 0) {
		t.Error("write to a shared page must not skip the broadcast")
	}
	if f.PagePrivate(unknownBlock, 0) {
		t.Error("write to an unclassified page must not skip the broadcast")
	}
	if f.Elided() != 1 {
		t.Errorf("Elided = %d, want 1", f.Elided())
	}
	f.ResetStats()
	if f.Elided() != 0 {
		t.Error("ResetStats did not clear the filter counter")
	}
}

func TestBroadcastFilterDisabled(t *testing.T) {
	if NewBroadcastFilter(nil, true).PagePrivate(addr.Block(0), 0) {
		t.Error("a filter without a classifier must never elide broadcasts")
	}
	classifier := tlb.NewClassifier()
	classifier.Access(addr.Page(0), 0, 0) // page 0 is private to thread 0
	f := NewBroadcastFilter(classifier, false)
	if f.PagePrivate(addr.Block(0), 0) || f.Elided() != 0 {
		t.Error("enabled=false must never elide broadcasts, even for a private page")
	}
}

func TestCleanLLCEvictionPolicy(t *testing.T) {
	// Modified eviction: write through to memory, keep a clean local copy,
	// tell the directory.
	a := CleanLLCEviction(coherence.LineModified, true)
	if !a.WriteToMemory || !a.FillLocalDRAMCache || a.FillDirty || !a.NotifyDirectory {
		t.Errorf("Modified eviction action = %+v", a)
	}
	// Shared eviction: silent victim-cache fill.
	a = CleanLLCEviction(coherence.LineShared, false)
	if a.WriteToMemory || !a.FillLocalDRAMCache || a.FillDirty || a.NotifyDirectory {
		t.Errorf("Shared eviction action = %+v", a)
	}
	// Invalid eviction: nothing.
	if a := CleanLLCEviction(coherence.LineInvalid, false); a != (EvictionAction{}) {
		t.Errorf("Invalid eviction action = %+v, want zero", a)
	}
}

func TestDirtyLLCEvictionPolicy(t *testing.T) {
	a := DirtyLLCEviction(coherence.LineModified, true)
	if a.WriteToMemory || !a.FillLocalDRAMCache || !a.FillDirty {
		t.Errorf("dirty-design Modified eviction = %+v; want absorbed by the DRAM cache", a)
	}
	a = DirtyLLCEviction(coherence.LineShared, false)
	if a.WriteToMemory || !a.FillLocalDRAMCache || a.FillDirty {
		t.Errorf("dirty-design Shared eviction = %+v", a)
	}
}

func TestDataSourceString(t *testing.T) {
	if FromMemory.String() != "memory" || FromOwnerLLC.String() != "owner-llc" {
		t.Error("unexpected DataSource names")
	}
}
