// Package addr provides the physical-address vocabulary shared by every
// component of the simulated memory hierarchy: cache blocks, pages, and the
// helpers that carve an address into block/page/set indices.
//
// All components in this repository agree on a 64-byte cache block and a
// 4 KiB page, matching Table II of the C3D paper (64 B line buffer, page-grain
// NUMA placement). Both sizes are exposed as constants rather than
// configuration because changing them would invalidate the latency and
// bandwidth parameters taken from the paper.
package addr

import "fmt"

// Addr is a physical byte address in the simulated machine.
type Addr uint64

const (
	// BlockBytes is the cache block (line) size used throughout the
	// hierarchy: L1, LLC, DRAM cache and memory transfers.
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6

	// PageBytes is the OS page size used for NUMA placement and the
	// private/shared classification of §IV-D.
	PageBytes = 4096
	// PageShift is log2(PageBytes).
	PageShift = 12

	// BlocksPerPage is the number of cache blocks in one page.
	BlocksPerPage = PageBytes / BlockBytes
)

// Block identifies a cache block (the address with the block offset removed).
type Block uint64

// Page identifies an OS page (the address with the page offset removed).
type Page uint64

// BlockOf returns the block number containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockShift) }

// PageOf returns the page number containing a.
func PageOf(a Addr) Page { return Page(a >> PageShift) }

// PageOfBlock returns the page containing block b.
func PageOfBlock(b Block) Page { return Page(b >> (PageShift - BlockShift)) }

// BlockAddr returns the first byte address of block b.
func BlockAddr(b Block) Addr { return Addr(b) << BlockShift }

// PageAddr returns the first byte address of page p.
func PageAddr(p Page) Addr { return Addr(p) << PageShift }

// BlockAlign rounds a down to the start of its cache block.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func BlockAlign(a Addr) Addr { return a &^ (BlockBytes - 1) }

// PageAlign rounds a down to the start of its page.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func PageAlign(a Addr) Addr { return a &^ (PageBytes - 1) }

// BlockOffset returns the offset of a within its cache block.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func BlockOffset(a Addr) uint64 { return uint64(a) & (BlockBytes - 1) }

// PageOffset returns the offset of a within its page.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func PageOffset(a Addr) uint64 { return uint64(a) & (PageBytes - 1) }

// BlockInPage returns the index of block b within its page, in [0, BlocksPerPage).
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func BlockInPage(b Block) int { return int(uint64(b) & (BlocksPerPage - 1)) }

// String renders the address in hex, e.g. "0x00000000deadbec0".
func (a Addr) String() string { return fmt.Sprintf("0x%016x", uint64(a)) }

// String renders the block number and its byte address.
func (b Block) String() string {
	return fmt.Sprintf("block %d (%s)", uint64(b), BlockAddr(b))
}

// String renders the page number and its byte address.
func (p Page) String() string {
	return fmt.Sprintf("page %d (%s)", uint64(p), PageAddr(p))
}
