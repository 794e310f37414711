package core

import (
	"fmt"
	"strings"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/coherence"
	"c3d/internal/tlb"
)

// transitionRow is one line of Fig. 5 for a set of designs: from the entry
// state, the request from socket 0 moves the directory to next and performs
// act. States and entries are written I, S{sharers}, or M<owner> (whose
// sharers are the owner alone); "PutX3" is a PutX from socket 3, which
// holds nothing. An action lists the data source (mem, or fwd<owner>), the
// invalidated sharers, bcast or avoided, and keep when the entry is left as
// it was (a PutX lists nothing else); "panic" marks a request the protocol
// model cannot see.
type transitionRow struct {
	designs string // space-separated trait-set names
	state   string
	req     string
	private string // "yes", "no" or "" for either
	next    string
	act     string
}

// transitionTraits are the trait sets the rows cover: the timed designs'
// (shared's directory is baseline's) and the protocol model's two.
var transitionTraits = map[string]DirTraits{
	"baseline":           {AllocOnGetS: true, Stale: StaleTrustsRequester},
	"full-dir":           {AllocOnGetS: true, PutX: PutXDropsSender, Stale: StaleTrustsRequester},
	"c3d":                {BroadcastUntracked: true, Stale: StaleKeepsOwner},
	"c3d-full-dir":       {AllocOnGetS: true, PutX: PutXLeavesShared, Stale: StaleKeepsOwner},
	"model-c3d":          NewProtocolModel(ProtocolConfig{Sockets: 4}).dir,
	"model-c3d-full-dir": NewProtocolModel(ProtocolConfig{Sockets: 4, TrackDRAMCache: true}).dir,
}

var transitionRows = []transitionRow{
	// Invalid: memory supplies the data. Only C3D's non-inclusive directory
	// leaves a read untracked, and only it broadcasts a write, unless the
	// page is private to the writer. A PutX finds nothing to give up.
	{"baseline full-dir c3d-full-dir model-c3d-full-dir", "I", "GetS", "", "S{0}", "mem"},
	{"c3d model-c3d", "I", "GetS", "", "I", "mem keep"},
	{"baseline full-dir c3d-full-dir model-c3d-full-dir", "I", "GetX", "", "M0", "mem"},
	{"c3d model-c3d", "I", "GetX", "no", "M0", "mem bcast"},
	{"c3d model-c3d", "I", "GetX", "yes", "M0", "mem avoided"},
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "I", "PutX", "", "I", "keep"},
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "I", "PutX3", "", "I", "keep"},

	// Shared: memory is up to date. A read joins the sharers; a write
	// invalidates exactly the others. Fig. 5 ignores a PutX here (it raced
	// a forward); the timed directories take it as a write-back.
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "S{0,2}", "GetS", "", "S{0,2}", "mem"},
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "S{0,2}", "GetX", "", "M0", "mem inv{2}"},
	{"model-c3d model-c3d-full-dir", "S{0,2}", "PutX", "", "S{0,2}", "keep"},
	{"model-c3d model-c3d-full-dir", "S{0,2}", "PutX3", "", "S{0,2}", "keep"},
	{"baseline c3d", "S{0,2}", "PutX", "", "I", ""},
	{"baseline c3d", "S{0,2}", "PutX3", "", "I", ""},
	{"c3d-full-dir", "S{0,2}", "PutX", "", "S{0}", ""},
	{"c3d-full-dir", "S{0,2}", "PutX3", "", "S{3}", ""},
	{"full-dir", "S{0,2}", "PutX", "", "S{2}", ""},
	{"full-dir", "S{0,2}", "PutX3", "", "S{0,2}", ""},

	// Modified by the requester: the model never sees it; after
	// functional warming the timed directories do. C3D forwards a read to
	// the recorded owner regardless; the others trust the requester.
	{"model-c3d model-c3d-full-dir", "M0", "GetS", "", "", "panic"},
	{"model-c3d model-c3d-full-dir", "M0", "GetX", "", "", "panic"},
	{"c3d c3d-full-dir", "M0", "GetS", "", "S{0}", "fwd0"},
	{"baseline full-dir", "M0", "GetS", "", "S{0}", "mem"},
	{"baseline full-dir c3d c3d-full-dir", "M0", "GetX", "", "M0", "mem"},
	// The owner's PutX: Fig. 5's Modified to Invalid, or Shared{0} where
	// c3d-full-dir keeps tracking.
	{"baseline full-dir c3d model-c3d", "M0", "PutX", "", "I", ""},
	{"c3d-full-dir model-c3d-full-dir", "M0", "PutX", "", "S{0}", ""},
	{"c3d c3d-full-dir model-c3d model-c3d-full-dir", "M0", "PutX3", "", "M0", "keep"},
	{"baseline", "M0", "PutX3", "", "I", ""},
	{"full-dir", "M0", "PutX3", "", "M0", ""},

	// Modified by another socket: the owner supplies the data, and keeps a
	// Shared copy on a read or loses its copy on a write. A PutX from
	// anyone else is stale, except to baseline, which drops the entry, and
	// full-dir, which drops the sender from sharers it is not in.
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "M2", "GetS", "", "S{0,2}", "fwd2"},
	{"baseline full-dir c3d c3d-full-dir model-c3d model-c3d-full-dir", "M2", "GetX", "", "M0", "fwd2"},
	{"c3d c3d-full-dir model-c3d model-c3d-full-dir", "M2", "PutX", "", "M2", "keep"},
	{"c3d c3d-full-dir model-c3d model-c3d-full-dir", "M2", "PutX3", "", "M2", "keep"},
	{"baseline", "M2", "PutX", "", "I", ""},
	{"baseline", "M2", "PutX3", "", "I", ""},
	{"full-dir", "M2", "PutX", "", "M2", ""},
	{"full-dir", "M2", "PutX3", "", "M2", ""},
}

// TestTransitionTable checks Transition against the rows above for every
// trait set, entry state, request and page class, and that the rows cover
// each combination exactly once.
func TestTransitionTable(t *testing.T) {
	states := []string{"I", "S{0,2}", "M0", "M2"}
	reqs := []string{"GetS", "GetX", "PutX", "PutX3"}
	for name, tr := range transitionTraits {
		for _, state := range states {
			for _, req := range reqs {
				for _, private := range []string{"no", "yes"} {
					var row *transitionRow
					for i := range transitionRows {
						r := &transitionRows[i]
						if strings.Contains(" "+r.designs+" ", " "+name+" ") && r.state == state &&
							r.req == req && (r.private == "" || r.private == private) {
							if row != nil {
								t.Fatalf("%s %s %s private=%s: two rows", name, state, req, private)
							}
							row = r
						}
					}
					if row == nil {
						t.Fatalf("%s %s %s private=%s: no row", name, state, req, private)
					}
					next, act := transitionOf(tr, state, req, private == "yes")
					if next != row.next || act != row.act {
						t.Errorf("%s %s %s private=%s: next %q, action %q; want %q, %q",
							name, state, req, private, next, act, row.next, row.act)
					}
				}
			}
		}
	}
}

// transitionOf runs Transition for a row's inputs and writes its result in
// the rows' notation.
func transitionOf(tr DirTraits, state, req string, private bool) (next, act string) {
	cur := map[string]coherence.Entry{
		"I":      {},
		"S{0,2}": {State: coherence.DirShared, Sharers: coherence.NewSharerSet(0, 2)},
		"M0":     {State: coherence.DirModified, Owner: 0, Sharers: coherence.NewSharerSet(0)},
		"M2":     {State: coherence.DirModified, Owner: 2, Sharers: coherence.NewSharerSet(2)},
	}[state]
	from, r := 0, map[string]Request{"GetS": GetS, "GetX": GetX, "PutX": PutX, "PutX3": PutX}[req]
	if req == "PutX3" {
		from = 3
	}
	defer func() {
		if recover() != nil {
			next, act = "", "panic"
		}
	}()
	e, a := Transition(tr, cur, from, r, private)
	switch e.State {
	case coherence.DirInvalid:
		next = "I"
	case coherence.DirShared:
		next = "S" + e.Sharers.String()
	default:
		next = fmt.Sprintf("M%d", e.Owner)
		if e.Sharers != coherence.NewSharerSet(e.Owner) {
			next += e.Sharers.String()
		}
	}
	var parts []string
	switch {
	case r == PutX:
	case a.Source == FromOwnerLLC:
		parts = append(parts, fmt.Sprintf("fwd%d", a.Owner))
	default:
		parts = append(parts, "mem")
	}
	if !a.Invalidate.Empty() {
		parts = append(parts, "inv"+a.Invalidate.String())
	}
	if a.Broadcast {
		parts = append(parts, "bcast")
	}
	if a.BroadcastAvoided {
		parts = append(parts, "avoided")
	}
	if a.Keep {
		parts = append(parts, "keep")
	}
	return next, strings.Join(parts, " ")
}

// dirWalk is one block's directory entry as a sequence of requests moves
// it through Transition.
type dirWalk struct {
	tr DirTraits
	e  coherence.Entry
}

func (w *dirWalk) do(from int, req Request, pagePrivate bool) Action {
	var a Action
	w.e, a = Transition(w.tr, w.e, from, req, pagePrivate)
	return a
}

func newC3DWalk() *dirWalk     { return &dirWalk{tr: transitionTraits["c3d"]} }
func newFullDirWalk() *dirWalk { return &dirWalk{tr: transitionTraits["c3d-full-dir"]} }

func TestGetSInvalidServedByMemoryWithoutAllocation(t *testing.T) {
	w := newC3DWalk()
	a := w.do(2, GetS, false)
	if a.Source != FromMemory {
		t.Fatalf("Source = %v, want memory", a.Source)
	}
	// Non-inclusive directory: GetS in Invalid must NOT allocate an entry
	// (§IV-B — this is where the storage savings come from).
	if w.e.State != coherence.DirInvalid || !a.Keep {
		t.Fatalf("entry after a GetS in Invalid = %+v, keep %v; want untracked", w.e, a.Keep)
	}
}

func TestGetXInvalidBroadcasts(t *testing.T) {
	w := newC3DWalk()
	a := w.do(1, GetX, false)
	if !a.Broadcast || a.BroadcastAvoided {
		t.Fatal("GetX to an untracked block must broadcast invalidations")
	}
	if !a.Invalidate.Empty() {
		t.Errorf("precise invalidations = %v, want none (broadcast covers them)", a.Invalidate)
	}
	if a.Source != FromMemory {
		t.Errorf("Source = %v, want memory", a.Source)
	}
	if w.e.State != coherence.DirModified || w.e.Owner != 1 {
		t.Fatalf("directory entry after GetX = %+v; want Modified owner 1", w.e)
	}
}

func TestGetXPrivatePageSkipsBroadcast(t *testing.T) {
	w := newC3DWalk()
	a := w.do(0, GetX, true)
	if a.Broadcast {
		t.Fatal("GetX to a private page must not broadcast (§IV-D)")
	}
	if !a.BroadcastAvoided {
		t.Error("the elided broadcast is not marked avoided")
	}
}

func TestModifiedThenGetSForwardsFromOwner(t *testing.T) {
	w := newC3DWalk()
	w.do(3, GetX, false)
	a := w.do(0, GetS, false)
	if a.Source != FromOwnerLLC || a.Owner != 3 {
		t.Fatalf("action = %+v; want forward from owner 3", a)
	}
	if w.e.State != coherence.DirShared {
		t.Errorf("state after GetS = %v, want Shared", w.e.State)
	}
	if w.e.Sharers != coherence.NewSharerSet(0, 3) {
		t.Errorf("sharers = %v, want {0,3}", w.e.Sharers)
	}
}

func TestSharedThenGetXInvalidatesPrecisely(t *testing.T) {
	w := newC3DWalk()
	// Socket 3 writes, sockets 0 and 1 read: directory ends in Shared{0,1,3}.
	w.do(3, GetX, false)
	w.do(0, GetS, false)
	w.do(1, GetS, false)
	a := w.do(0, GetX, false)
	if a.Broadcast {
		t.Fatal("a tracked Shared block must use precise invalidations, not a broadcast")
	}
	if a.Invalidate != coherence.NewSharerSet(1, 3) {
		t.Errorf("Invalidate = %v, want {1,3}", a.Invalidate)
	}
	if a.Source != FromMemory {
		t.Errorf("Source = %v, want memory (Shared means memory is up to date)", a.Source)
	}
	if w.e.State != coherence.DirModified || w.e.Owner != 0 {
		t.Errorf("entry = %+v, want Modified owner 0", w.e)
	}
}

func TestModifiedThenGetXChangesOwner(t *testing.T) {
	w := newC3DWalk()
	w.do(2, GetX, false)
	a := w.do(1, GetX, false)
	// The forward to the previous owner takes its copy; nothing else is
	// invalidated.
	if a.Source != FromOwnerLLC || a.Owner != 2 || !a.Invalidate.Empty() || a.Broadcast {
		t.Fatalf("action = %+v; want data forwarded from previous owner 2 alone", a)
	}
	if w.e.State != coherence.DirModified || w.e.Owner != 1 || w.e.Sharers != coherence.NewSharerSet(1) {
		t.Errorf("entry = %+v, want Modified owner 1", w.e)
	}
}

func TestPutXInvalidatesEntryInBaseC3D(t *testing.T) {
	w := newC3DWalk()
	w.do(2, GetX, false)
	w.do(2, PutX, false)
	if w.e.State != coherence.DirInvalid {
		t.Fatalf("entry = %+v; base C3D drops the entry on a write-back (Fig. 5 Modified→Invalid)", w.e)
	}
	// A subsequent write is untracked again and must broadcast.
	if a := w.do(0, GetX, false); !a.Broadcast {
		t.Error("write after a write-back should broadcast (entry was dropped)")
	}
}

func TestPutXKeepsEntrySharedInFullDirVariant(t *testing.T) {
	w := newFullDirWalk()
	w.do(2, GetX, false)
	w.do(2, PutX, false)
	if w.e.State != coherence.DirShared || w.e.Sharers != coherence.NewSharerSet(2) {
		t.Fatalf("entry = %+v; want Shared{2} (c3d-full-dir keeps tracking)", w.e)
	}
	// With the block still tracked, a later write needs no broadcast.
	if a := w.do(0, GetX, false); a.Broadcast {
		t.Error("c3d-full-dir should never broadcast")
	}
}

func TestStalePutXIgnored(t *testing.T) {
	w := newC3DWalk()
	w.do(2, GetX, false)
	w.do(1, GetX, false) // ownership moves to socket 1
	a := w.do(2, PutX, false)
	if !a.Keep || w.e.State != coherence.DirModified || w.e.Owner != 1 {
		t.Fatalf("entry = %+v, keep %v; a stale PutX must not disturb the current owner", w.e, a.Keep)
	}
}

func TestFullDirGetSAllocates(t *testing.T) {
	w := newFullDirWalk()
	w.do(1, GetS, false)
	if w.e.State != coherence.DirShared || w.e.Sharers != coherence.NewSharerSet(1) {
		t.Fatalf("entry = %+v; the full-dir variant must track GetS fills", w.e)
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
