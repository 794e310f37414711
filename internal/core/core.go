// Package core implements the paper's primary contribution: the Clean
// Coherent DRAM Cache (C3D) protocol. It contains
//
//   - the home directory's transition function of Fig. 5 (Transition): three
//     stable states (Invalid, Shared, Modified) and, per design, a few
//     traits. C3D's directory is non-inclusive (§IV-B/§IV-C): it tracks
//     on-chip copies only, serves a GetS in Invalid from memory without
//     allocating an entry, and answers a GetX to an untracked block with a
//     broadcast invalidation of every DRAM cache. The same function, with
//     other traits, drives the baseline and full-directory designs;
//   - the clean DRAM cache policy of §IV-A: LLC dirty evictions are written
//     through to memory while a clean copy is retained in the local DRAM
//     cache, so no remote DRAM cache ever needs to be probed on a read;
//   - the TLB-based broadcast filter of §IV-D, which elides broadcasts for
//     writes to thread-private pages;
//   - a message-level model of the full protocol (protocol.go) suitable for
//     exhaustive state-space exploration by internal/mc, mirroring the Murϕ
//     verification of §IV-C. Its directory moves by Transition too, so the
//     checked model and the timed engines share one specification.
//
// The package is deliberately free of timing: it decides *what* must happen
// (who supplies data, who must be invalidated, whether a broadcast is
// required); the machine model (internal/machine) decides what that costs,
// and owns the directory storage (coherence.Directory) the transitions act
// on.
package core

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/coherence"
	"c3d/internal/tlb"
)

// DataSource says where a request obtains its data from.
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

// Request is a request kind the home directory serves.
type Request uint8

const (
	// GetS asks for a read-only copy: a load miss.
	GetS Request = iota
	// GetX asks for write permission: a store miss, or an upgrade, which
	// Fig. 5 treats alike.
	GetX
	// PutX gives a copy up: an owner's write-back of a Modified block, or
	// an inclusive directory's eviction notice.
	PutX
)

func (r Request) String() string {
	switch r {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case PutX:
		return "PutX"
	default:
		return fmt.Sprintf("Request(%d)", uint8(r))
	}
}

// PutXLeaves says what a PutX the directory accepts leaves behind.
type PutXLeaves uint8

const (
	// PutXRemoves drops the entry: Fig. 5's Modified to Invalid.
	PutXRemoves PutXLeaves = iota
	// PutXLeavesShared keeps the block tracked as Shared by the sender, the
	// small modification of §V-A that spares c3d-full-dir its broadcasts.
	PutXLeavesShared
	// PutXDropsSender takes only the sender out of the sharers, and the
	// entry goes with the last of them: the eviction notice of an inclusive
	// directory.
	PutXDropsSender
)

// Stale says how a directory treats a request its entry contradicts: a
// PutX from a socket the entry does not record as owner, or a GetS or GetX
// from the recorded owner itself. In the protocol model only a PutX meets
// such an entry, when it races a forwarded request. The timed machine
// serves each request atomically, but functional warming moves blocks
// without telling the directory, so sampled runs meet all of them.
type Stale uint8

const (
	// StaleFig5 is Fig. 5 as the model checks it: a PutX from anyone but
	// the recorded owner is ignored, and a request from the recorded owner
	// cannot happen (it panics).
	StaleFig5 Stale = iota
	// StaleKeepsOwner ignores a PutX only when another socket is the
	// recorded owner, and forwards a GetS from the recorded owner to itself.
	StaleKeepsOwner
	// StaleTrustsRequester accepts every PutX, and serves a GetS from the
	// recorded owner from memory.
	StaleTrustsRequester
)

// DirTraits are the per-design constants of a directory's Fig. 5
// transitions.
type DirTraits struct {
	// AllocOnGetS makes a GetS to an untracked block allocate a Shared
	// entry. C3D's non-inclusive directory leaves the block untracked, as
	// memory supplies it and clean DRAM caches need no record (§IV-B).
	AllocOnGetS bool
	// BroadcastUntracked makes a GetX to an untracked block invalidate
	// every other socket, whose clean DRAM caches may hold it unrecorded
	// (§IV-C), unless its page is private to the writer (§IV-D).
	BroadcastUntracked bool
	// PutX is what an accepted PutX leaves.
	PutX PutXLeaves
	// Stale is how the directory treats requests its entry contradicts.
	Stale Stale
}

// Action is what the home directory does to serve a request, besides
// moving to its next entry.
type Action struct {
	// Source supplies a GetS's or GetX's data.
	Source DataSource
	// Owner is the socket the request is forwarded to when Source is
	// FromOwnerLLC. The forward takes its copy: downgraded for a GetS,
	// invalidated for a GetX.
	Owner int
	// Invalidate holds the other sharers whose copies a GetX invalidates.
	Invalidate coherence.SharerSet
	// Broadcast makes a GetX invalidate every other socket instead.
	Broadcast bool
	// BroadcastAvoided marks a broadcast the private-page filter elided.
	BroadcastAvoided bool
	// Keep leaves the entry as it was, replacement order included: the
	// request was a stale PutX, whose data is discarded, or a read that a
	// non-inclusive directory does not track.
	Keep bool
}

// Transition is the home directory's transition function (Fig. 5): given a
// design's traits, the block's current entry (State DirInvalid when it has
// none), the requesting socket, the request and whether the block's page is
// private to the requesting thread, it returns the next entry (DirInvalid to
// drop it) and what the directory does. It is pure: the protocol model and
// every timed directory engine choose their messages and next state with it.
func Transition(tr DirTraits, cur coherence.Entry, from int, req Request, pagePrivate bool) (coherence.Entry, Action) {
	own := cur.State == coherence.DirModified && cur.Owner == from
	if own && req != PutX && tr.Stale == StaleFig5 {
		panic(fmt.Sprintf("core: %v from socket %d, which the directory records as the owner", req, from))
	}
	switch req {
	case GetS:
		switch {
		case cur.State == coherence.DirInvalid && !tr.AllocOnGetS:
			return cur, Action{Keep: true}
		case cur.State != coherence.DirModified, own && tr.Stale == StaleTrustsRequester:
			return sharedBy(cur.Sharers.Add(from)), Action{}
		default:
			next := sharedBy(cur.Sharers.Add(cur.Owner).Add(from))
			return next, Action{Source: FromOwnerLLC, Owner: cur.Owner}
		}
	case GetX:
		next := coherence.Entry{State: coherence.DirModified, Owner: from, Sharers: coherence.NewSharerSet(from)}
		switch {
		case cur.State == coherence.DirShared:
			return next, Action{Invalidate: cur.Sharers.Others(from)}
		case cur.State == coherence.DirModified && !own:
			return next, Action{Source: FromOwnerLLC, Owner: cur.Owner}
		case cur.State == coherence.DirInvalid && tr.BroadcastUntracked:
			return next, Action{Broadcast: !pagePrivate, BroadcastAvoided: pagePrivate}
		default:
			return next, Action{}
		}
	case PutX:
		switch {
		case cur.State == coherence.DirInvalid,
			!own && tr.Stale == StaleFig5,
			cur.State == coherence.DirModified && !own && tr.Stale == StaleKeepsOwner:
			return cur, Action{Keep: true}
		case tr.PutX == PutXLeavesShared:
			return sharedBy(coherence.NewSharerSet(from)), Action{}
		case tr.PutX == PutXDropsSender:
			rest := cur.Sharers.Remove(from)
			switch {
			case rest.Empty():
				return coherence.Entry{}, Action{}
			case own:
				return sharedBy(rest), Action{}
			default:
				cur.Sharers = rest
				return cur, Action{}
			}
		default:
			return coherence.Entry{}, Action{}
		}
	default:
		panic(fmt.Sprintf("core: unknown request %v", req))
	}
}

// sharedBy is a Shared entry with the given sharers.
func sharedBy(s coherence.SharerSet) coherence.Entry {
	return coherence.Entry{State: coherence.DirShared, Sharers: s}
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
