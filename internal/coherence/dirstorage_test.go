package coherence

import (
	"math"
	"testing"
)

const (
	mib = 1 << 20
	gib = 1 << 30
)

// §III-B: "a 256MB DRAM cache, even with a minimally-provisioned (1x) sparse
// directory, would require 16MB of directory storage per socket. For a
// 2x-provisioned directory ... the storage costs increase to 32MB for a 256MB
// cache or a whopping 128MB for a 1GB DRAM cache."
func TestDirectoryStorageMatchesPaperNumbers(t *testing.T) {
	cases := []struct {
		name         string
		capacity     uint64
		provisioning float64
		wantMB       float64
	}{
		{"256MB cache, 1x", 256 * mib, 1.0, 16},
		{"256MB cache, 2x", 256 * mib, 2.0, 32},
		{"1GB cache, 2x", 1 * gib, 2.0, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultStorageParams(tc.capacity, 4, tc.provisioning)
			got := p.StorageMB()
			// The paper rounds to the nearest power-of-two-ish MB figure;
			// allow 25% slack for the exact per-entry width assumed.
			if math.Abs(got-tc.wantMB)/tc.wantMB > 0.25 {
				t.Errorf("StorageMB() = %.1f, want about %.0f", got, tc.wantMB)
			}
		})
	}
}

func TestEntryBitsRoundsToBytes(t *testing.T) {
	p := StorageParams{TagBits: 41, StateBits: 3, Sockets: 4}
	if got := p.EntryBits(); got%8 != 0 {
		t.Errorf("EntryBits() = %d, want a multiple of 8", got)
	}
	if got := p.EntryBits(); got < 48 {
		t.Errorf("EntryBits() = %d, want >= 48", got)
	}
}

func TestEntriesRequiredScalesWithProvisioning(t *testing.T) {
	base := DefaultStorageParams(256*mib, 4, 1.0).EntriesRequired()
	doubled := DefaultStorageParams(256*mib, 4, 2.0).EntriesRequired()
	if doubled != 2*base {
		t.Errorf("2x provisioning entries = %d, want %d", doubled, 2*base)
	}
}

func TestNonInclusiveDirectorySavings(t *testing.T) {
	// C3D's directory covers only the 16MB LLC, not the 1GB DRAM cache. The
	// storage savings versus an inclusive directory must exceed 95%.
	savings := StorageSavings(1*gib, 16*mib, 4, 2.0)
	if savings < 0.95 {
		t.Errorf("StorageSavings = %.3f, want > 0.95", savings)
	}
	incl := InclusiveDirCost(1*gib, 16*mib, 4, 2.0)
	noninc := NonInclusiveDirCost(16*mib, 4, 2.0)
	if noninc >= incl {
		t.Errorf("non-inclusive cost %d should be far below inclusive cost %d", noninc, incl)
	}
}
