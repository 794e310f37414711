// Package core implements the paper's primary contribution: the Clean
// Coherent DRAM Cache (C3D) protocol. It contains
//
//   - the non-inclusive global directory semantics of §IV-B/§IV-C (Fig. 5):
//     three stable states (Invalid, Shared, Modified) over on-chip caches
//     only, with GetS requests in Invalid served by memory without allocating
//     an entry and GetX requests to untracked blocks answered with a
//     broadcast invalidation of all DRAM caches;
//   - the clean DRAM cache policy of §IV-A: LLC dirty evictions are written
//     through to memory while a clean copy is retained in the local DRAM
//     cache, so no remote DRAM cache ever needs to be probed on a read;
//   - the TLB-based broadcast filter of §IV-D, which elides broadcasts for
//     writes to thread-private pages;
//   - a message-level model of the full protocol (protocol.go) suitable for
//     exhaustive state-space exploration by internal/mc, mirroring the Murϕ
//     verification of §IV-C.
//
// The package is deliberately free of timing: it decides *what* must happen
// (who supplies data, who must be invalidated, whether a broadcast is
// required); the machine model (internal/machine) decides what that costs.
package core

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/coherence"
	"c3d/internal/tlb"
)

// DataSource says where a read miss obtains its data from.
type DataSource int

const (
	// FromMemory: the home socket's memory supplies the block. With clean
	// DRAM caches this is always safe when no on-chip cache holds the block
	// Modified.
	FromMemory DataSource = iota
	// FromOwnerLLC: the single socket holding the block Modified in its
	// on-chip hierarchy supplies it.
	FromOwnerLLC
)

func (d DataSource) String() string {
	switch d {
	case FromMemory:
		return "memory"
	case FromOwnerLLC:
		return "owner-llc"
	default:
		return fmt.Sprintf("DataSource(%d)", int(d))
	}
}

// DirConfig configures a C3D global directory slice.
type DirConfig struct {
	// Name identifies the slice in diagnostics.
	Name string
	// Sockets is the number of sockets in the machine.
	Sockets int
	// Entries and Ways size the sparse structure; Entries == 0 gives an
	// unbounded directory (used by the idealised c3d-full-dir design).
	Entries int
	Ways    int
	// TrackDRAMCache switches on the idealised c3d-full-dir behaviour of
	// §V-A: the directory also tracks blocks that live only in DRAM caches,
	// which removes the need for broadcasts entirely. The base C3D design
	// leaves this false.
	TrackDRAMCache bool
}

// DirStats counts the broadcast decisions a run reports.
type DirStats struct {
	Broadcasts    uint64
	BroadcastsAvd uint64 // avoided thanks to the private-page filter
}

// Directory is one socket's slice of the C3D global directory. It stores
// stable state for blocks homed at this socket and implements the transition
// rules of Fig. 5. All methods are pure protocol decisions — no latencies.
type Directory struct {
	cfg   DirConfig
	dir   *coherence.Directory
	stats DirStats
}

// NewDirectory builds a directory slice.
func NewDirectory(cfg DirConfig) *Directory {
	if cfg.Sockets <= 0 {
		panic(fmt.Sprintf("core: directory %s: invalid socket count %d", cfg.Name, cfg.Sockets))
	}
	return &Directory{
		cfg: cfg,
		dir: coherence.NewDirectory(coherence.DirConfig{
			Name:    cfg.Name,
			Entries: cfg.Entries,
			Ways:    cfg.Ways,
		}),
	}
}

// SetStalePredicate forwards a staleness hint to the underlying sparse
// structure (see coherence.Directory.SetStalePredicate); it lets the
// replacement policy victimise entries whose blocks have already left every
// on-chip cache instead of recalling live ones. As there, the predicate must
// be pure and may be asked about only some ways of a full set, oldest first.
func (d *Directory) SetStalePredicate(fn func(addr.Block) bool) { d.dir.SetStalePredicate(fn) }

// Stats returns the broadcast counters.
func (d *Directory) Stats() DirStats { return d.stats }

// ResetStats clears the broadcast counters.
func (d *Directory) ResetStats() { d.stats = DirStats{} }

// Entries returns the number of blocks currently tracked.
//
//c3dlint:allow unused(occupancy the directory tests check non-inclusive allocation with)
func (d *Directory) Entries() int { return d.dir.Entries() }

// Probe returns the tracked entry for a block without touching LRU order.
//
//c3dlint:allow unused(entry the directory tests read Fig. 5 transitions from)
func (d *Directory) Probe(b addr.Block) (coherence.Entry, bool) { return d.dir.Probe(b) }

// ReadDecision is the outcome of a GetS at the home directory.
type ReadDecision struct {
	// Source says who supplies the data.
	Source DataSource
	// Owner is the socket that must forward the block when Source is
	// FromOwnerLLC.
	Owner int
	// Recall describes a sparse-directory eviction triggered by this request
	// (only possible when the directory had to allocate, i.e. in the
	// TrackDRAMCache variant); the caller must invalidate the recalled
	// block's copies.
	Recall coherence.Recall
}

// WriteDecision is the outcome of a GetX or Upgrade at the home directory.
type WriteDecision struct {
	// Broadcast reports that invalidations must be broadcast to every other
	// socket's DRAM cache because the directory has no entry for the block
	// (§IV-C, Invalid state) and the page is not known to be private.
	Broadcast bool
	// Invalidate is the precise set of sockets (excluding the requester)
	// whose copies must be invalidated.
	Invalidate coherence.SharerSet
	// Source says who supplies the data (memory unless a remote socket holds
	// the block Modified on-chip). Upgrades ignore it.
	Source DataSource
	// Owner is the previous owner when Source is FromOwnerLLC.
	Owner int
	// Recall as in ReadDecision.
	Recall coherence.Recall
}

// HandleGetS processes a read request from the requesting socket for a block
// homed at this directory slice. It applies Fig. 5's GetS transitions:
//
//	Invalid:  serve from memory; do NOT allocate an entry (non-inclusive).
//	Shared:   serve from memory; add the requester to the sharing vector.
//	Modified: forward to the owner; owner and requester end up in Shared.
//
// In the TrackDRAMCache variant (c3d-full-dir), Invalid additionally
// allocates a Shared entry so that later writes can invalidate precisely.
func (d *Directory) HandleGetS(b addr.Block, requester int) ReadDecision {
	d.checkSocket(requester)
	entry, ok := d.dir.Lookup(b)
	if !ok || entry.State == coherence.DirInvalid {
		var recall coherence.Recall
		if d.cfg.TrackDRAMCache {
			recall = d.dir.Update(b, coherence.Entry{
				State:   coherence.DirShared,
				Sharers: coherence.NewSharerSet(requester),
			})
		}
		return ReadDecision{Source: FromMemory, Recall: recall}
	}
	switch entry.State {
	case coherence.DirShared:
		entry.Sharers = entry.Sharers.Add(requester)
		recall := d.dir.Update(b, entry)
		return ReadDecision{Source: FromMemory, Recall: recall}
	case coherence.DirModified:
		owner := entry.Owner
		recall := d.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: entry.Sharers.Add(requester).Add(owner),
		})
		return ReadDecision{Source: FromOwnerLLC, Owner: owner, Recall: recall}
	default:
		panic(fmt.Sprintf("core: directory %s: unexpected state %v", d.cfg.Name, entry.State))
	}
}

// HandleGetX processes a write request or an upgrade (the directory treats
// both alike) from the requesting socket. pagePrivate carries the §IV-D TLB
// classification: a GetX for a block of a page private to the requesting
// thread never needs a broadcast. It applies Fig. 5's GetX/Upgrade
// transitions:
//
//	Invalid:  broadcast invalidations to all other DRAM caches (unless the
//	          page is private); serve from memory; become Modified(requester).
//	Shared:   invalidate exactly the tracked sharers; serve from memory;
//	          become Modified(requester).
//	Modified: invalidate/forward from the previous owner; become
//	          Modified(requester).
func (d *Directory) HandleGetX(b addr.Block, requester int, pagePrivate bool) WriteDecision {
	d.checkSocket(requester)
	entry, ok := d.dir.Lookup(b)
	dec := WriteDecision{Source: FromMemory}
	if !ok || entry.State == coherence.DirInvalid {
		switch {
		case d.cfg.TrackDRAMCache:
			// In the c3d-full-dir variant the directory is inclusive of the
			// DRAM caches, so an untracked block is genuinely uncached and
			// nobody needs an invalidation.
		case pagePrivate:
			d.stats.BroadcastsAvd++
		default:
			d.stats.Broadcasts++
			dec.Broadcast = true
		}
	} else {
		switch entry.State {
		case coherence.DirShared:
			dec.Invalidate = entry.Sharers.Others(requester)
		case coherence.DirModified:
			if entry.Owner != requester {
				dec.Source = FromOwnerLLC
				dec.Owner = entry.Owner
				dec.Invalidate = coherence.NewSharerSet(entry.Owner)
			}
		default:
			panic(fmt.Sprintf("core: directory %s: unexpected state %v", d.cfg.Name, entry.State))
		}
	}
	dec.Recall = d.dir.Update(b, coherence.Entry{
		State:   coherence.DirModified,
		Owner:   requester,
		Sharers: coherence.NewSharerSet(requester),
	})
	return dec
}

// HandlePutX processes a write-back of a Modified block from the owning
// socket (an LLC eviction, a downgrade response, or an invalidation
// response). Per Fig. 5 the directory transitions to Invalid in the base C3D
// design; the c3d-full-dir variant instead transitions to Shared (the "small
// modification" described in §V-A) so the block stays tracked and later
// writes avoid broadcasts.
func (d *Directory) HandlePutX(b addr.Block, from int) {
	d.checkSocket(from)
	entry, ok := d.dir.Lookup(b)
	if !ok {
		// A PutX can race with a recall that already removed the entry;
		// nothing to do.
		return
	}
	if entry.State == coherence.DirModified && entry.Owner != from {
		// Stale write-back from a socket that has already lost ownership
		// (e.g. it was invalidated while its PutX was in flight): ignore.
		return
	}
	if d.cfg.TrackDRAMCache {
		d.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: coherence.NewSharerSet(from),
		})
		return
	}
	d.dir.Remove(b)
}

func (d *Directory) checkSocket(s int) {
	if s < 0 || s >= d.cfg.Sockets {
		panic(fmt.Sprintf("core: directory %s: socket %d out of range [0,%d)", d.cfg.Name, s, d.cfg.Sockets))
	}
}

// BroadcastFilter implements the §IV-D optimisation: writes to pages
// classified as private to the writing thread skip the broadcast
// invalidation. It wraps the OS page classifier and counts the broadcasts it
// removed, which the §VI-C experiment reports.
type BroadcastFilter struct {
	classifier *tlb.Classifier
	enabled    bool
	elided     uint64
}

// NewBroadcastFilter builds a filter around the given classifier. A nil
// classifier or enabled=false disables filtering (every write is treated as
// potentially shared), which is the base C3D configuration.
func NewBroadcastFilter(classifier *tlb.Classifier, enabled bool) *BroadcastFilter {
	return &BroadcastFilter{classifier: classifier, enabled: enabled && classifier != nil}
}

// PagePrivate reports whether the page holding block b is known to be
// private to the given thread, in which case a GetX in directory state
// Invalid may skip its broadcast. It also counts the elisions §VI-C reports.
func (f *BroadcastFilter) PagePrivate(b addr.Block, thread int) bool {
	if f.enabled && f.classifier.IsPrivateTo(addr.PageOfBlock(b), thread) {
		f.elided++
		return true
	}
	return false
}

// Elided returns the number of broadcast opportunities removed by the filter.
func (f *BroadcastFilter) Elided() uint64 { return f.elided }

// ResetStats clears the filter's counter.
func (f *BroadcastFilter) ResetStats() { f.elided = 0 }
