package core

import (
	"fmt"

	"c3d/internal/cache"
	"c3d/internal/coherence"
)

// This file captures the clean-DRAM-cache policy of §IV-A as explicit,
// testable decisions. The machine's C3D engine executes these decisions; the
// alternative designs (snoopy, full-dir) use the dirty-victim-cache decisions
// for comparison.

// EvictionAction describes what must happen when a block leaves the LLC.
type EvictionAction struct {
	// WriteToMemory: the block's data must be written back to the home
	// socket's memory (a data message on the interconnect when the home is
	// remote, plus a memory write).
	WriteToMemory bool
	// FillLocalDRAMCache: a copy (always clean under C3D) is installed in
	// the local socket's DRAM cache so the socket keeps fast local access.
	FillLocalDRAMCache bool
	// FillDirty: the DRAM cache copy is installed dirty (only under the
	// write-back policy of the naive designs).
	FillDirty bool
	// NotifyDirectory: the home directory must be told the on-chip copy is
	// gone (a PutX). Silent for clean/Shared evictions.
	NotifyDirectory bool
}

// CleanLLCEviction returns the C3D action for an LLC eviction of a block in
// the given state with the given dirty bit:
//
//   - Modified/dirty blocks are written through to memory (keeping memory
//     up to date — the clean property) AND retained clean in the local DRAM
//     cache, and the directory is notified (Fig. 5's PutX path).
//   - Shared/clean blocks are silently dropped into the local DRAM cache as
//     the victim-cache fill; no memory traffic, no directory message.
func CleanLLCEviction(state cache.State, dirty bool) EvictionAction {
	switch state {
	case coherence.LineModified:
		return EvictionAction{
			WriteToMemory:      true,
			FillLocalDRAMCache: true,
			FillDirty:          false,
			NotifyDirectory:    true,
		}
	case coherence.LineShared:
		return EvictionAction{
			WriteToMemory:      dirty, // defensive: a dirty Shared line would still be flushed
			FillLocalDRAMCache: true,
			FillDirty:          false,
			NotifyDirectory:    false,
		}
	case coherence.LineInvalid:
		return EvictionAction{}
	default:
		panic(fmt.Sprintf("core: unknown LLC line state %d", state))
	}
}

// DirtyLLCEviction returns the action used by the naive dirty-DRAM-cache
// designs of §III: dirty LLC victims are absorbed by the local DRAM cache
// (making it the only up-to-date copy), and memory is only updated when the
// DRAM cache later evicts the block.
func DirtyLLCEviction(state cache.State, dirty bool) EvictionAction {
	switch state {
	case coherence.LineModified:
		return EvictionAction{
			WriteToMemory:      false,
			FillLocalDRAMCache: true,
			FillDirty:          true,
			NotifyDirectory:    true,
		}
	case coherence.LineShared:
		return EvictionAction{
			WriteToMemory:      false,
			FillLocalDRAMCache: true,
			FillDirty:          dirty,
			NotifyDirectory:    false,
		}
	case coherence.LineInvalid:
		return EvictionAction{}
	default:
		panic(fmt.Sprintf("core: unknown LLC line state %d", state))
	}
}
