package coherence

import "c3d/internal/addr"

// This file implements the directory storage cost model used in §III-B of the
// paper to argue that an inclusive directory over DRAM caches is impractical:
// a 256 MB DRAM cache with a minimally-provisioned (1x) sparse directory needs
// ~16 MB of directory storage per socket, 32 MB at 2x provisioning, and 128 MB
// for a 1 GB cache.

// StorageParams describes the sizing inputs of a sparse directory.
type StorageParams struct {
	// TrackedCapacityBytes is the total cache capacity (across the levels the
	// directory is inclusive of) in ONE socket that the directory must be
	// able to track.
	TrackedCapacityBytes uint64
	// Sockets is the number of sockets; the sharing vector has one bit per
	// socket and every socket's cached blocks must be trackable.
	Sockets int
	// Provisioning is the over-provisioning factor of the sparse directory
	// (1 = minimally provisioned, 2 = the 2x used by AMD Magny-Cours and the
	// paper's baseline).
	Provisioning float64
	// TagBits is the number of address tag bits stored per entry. The
	// paper's arithmetic (16 MB of directory for a 256 MB cache at 1x, i.e.
	// 4 bytes per entry) corresponds to a set-associative sparse directory
	// whose tag is a ~46-bit physical address minus block-offset and
	// set-index bits, about 26 bits.
	TagBits int
	// StateBits is the number of stable/transient state bits per entry.
	StateBits int
}

// DefaultStorageParams returns the parameters that reproduce the §III-B
// storage numbers for a directory covering capacityBytes of cache per socket
// in a machine with the given number of sockets.
func DefaultStorageParams(capacityBytes uint64, sockets int, provisioning float64) StorageParams {
	return StorageParams{
		TrackedCapacityBytes: capacityBytes,
		Sockets:              sockets,
		Provisioning:         provisioning,
		TagBits:              26,
		StateBits:            2,
	}
}

// EntryBits returns the width of one directory entry in bits: tag + state +
// one sharing-vector bit per socket, rounded up to a whole byte.
func (p StorageParams) EntryBits() int {
	bits := p.TagBits + p.StateBits + p.Sockets
	if rem := bits % 8; rem != 0 {
		bits += 8 - rem
	}
	return bits
}

// EntriesRequired returns the number of directory entries needed: one per
// block that could be cached, times the provisioning factor. The directory is
// shared by all sockets' caches, but in a home-sliced organisation each
// socket's slice tracks the blocks homed there; the paper quotes per-socket
// storage assuming the slice must cover one socket's worth of cache capacity
// per remote socket — in steady state each slice tracks capacity*sockets/
// sockets = capacity blocks, so the per-slice requirement equals the blocks in
// one socket's cache, scaled by provisioning.
func (p StorageParams) EntriesRequired() uint64 {
	blocks := p.TrackedCapacityBytes / addr.BlockBytes
	return uint64(float64(blocks)*p.Provisioning + 0.5)
}

// StorageBytes returns the total directory storage per socket in bytes.
func (p StorageParams) StorageBytes() uint64 {
	return p.EntriesRequired() * uint64(p.EntryBits()) / 8
}

// StorageMB returns the storage requirement in mebibytes.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (p StorageParams) StorageMB() float64 {
	return float64(p.StorageBytes()) / (1 << 20)
}

// InclusiveDirCost returns the per-socket storage (bytes) of a directory that
// must track DRAM-cache-resident blocks (the naive full-dir design of §III-B):
// it covers the DRAM cache plus the LLC.
func InclusiveDirCost(dramCacheBytes, llcBytes uint64, sockets int, provisioning float64) uint64 {
	p := DefaultStorageParams(dramCacheBytes+llcBytes, sockets, provisioning)
	return p.StorageBytes()
}

// NonInclusiveDirCost returns the per-socket storage (bytes) of C3D's
// directory, which tracks only on-chip (LLC and higher) blocks.
func NonInclusiveDirCost(llcBytes uint64, sockets int, provisioning float64) uint64 {
	p := DefaultStorageParams(llcBytes, sockets, provisioning)
	return p.StorageBytes()
}

// StorageSavings returns the fraction of directory storage saved by C3D's
// non-inclusive directory compared with an inclusive directory over the DRAM
// cache, for the given capacities.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func StorageSavings(dramCacheBytes, llcBytes uint64, sockets int, provisioning float64) float64 {
	incl := InclusiveDirCost(dramCacheBytes, llcBytes, sockets, provisioning)
	noninc := NonInclusiveDirCost(llcBytes, sockets, provisioning)
	if incl == 0 {
		return 0
	}
	return 1 - float64(noninc)/float64(incl)
}
