package dramcache

import (
	"math/bits"

	"c3d/internal/addr"
)

// MissPredictor is the region-based DRAM cache hit/miss predictor of Table II
// (a 4K-entry, region-grain structure in the spirit of Qureshi & Loh's MAP
// predictors). Its purpose is purely performance: a predicted miss lets the
// controller start the next-level access without waiting for the in-DRAM tag
// check, and a predicted hit avoids wasting memory bandwidth on speculative
// fetches.
//
// Each table entry tracks one memory region (an OS page) with a small
// saturating counter trained on actual outcomes: hits in the region push the
// counter up, misses push it down, fills prime it high and evictions decay
// it. A lookup predicts a hit when the counter is at or above the prediction
// threshold, so regions that are only sparsely resident quickly learn to
// predict miss instead of paying the in-DRAM tag check on every access.
// Predictions can still be wrong in both directions; correctness never
// depends on them — the protocol engines only use them to decide what to
// overlap.
//
// The table is kept in chunks of up to 2^predictorChunkBits entries, each nil
// until Resolve or BlockFilled first writes an entry in it; Predict and
// BlockEvicted read an entry in an unwritten chunk as invalid.
type MissPredictor struct {
	mask    uint64
	regions [][]predictorEntry
	stats   PredictorStats
	// lastRegion remembers the region of the most recent Predict call so
	// that Resolve can train the right entry.
	lastRegion addr.Page
}

type predictorEntry struct {
	region  addr.Page
	counter uint8
	valid   bool
}

// predictorChunkBits bounds a table chunk at 256 sixteen-byte entries, 4 KiB. A
// smaller table is one chunk of its own size.
const predictorChunkBits = 8

const (
	// predictorMax is the saturating counter ceiling.
	predictorMax = 3
	// predictorThreshold is the minimum counter value that predicts a hit.
	predictorThreshold = 2
)

// PredictorStats counts predictions and their accuracy.
type PredictorStats struct {
	Predictions   uint64
	PredictedHit  uint64
	PredictedMiss uint64
	// FalseHits counts predicted-hit lookups that actually missed.
	FalseHits uint64
	// FalseMisses counts predicted-miss lookups that actually hit.
	FalseMisses uint64
}

// NewMissPredictor builds a predictor with the given number of entries
// (rounded down to a power of two; Table II uses 4096).
func NewMissPredictor(entries int) *MissPredictor {
	// Round down to a power of two so the index is a mask.
	n := 1 << (bits.Len(uint(max(entries, 1))) - 1)
	return &MissPredictor{
		mask:    uint64(n - 1),
		regions: make([][]predictorEntry, max(n>>predictorChunkBits, 1)),
	}
}

// Stats returns a snapshot of the prediction counters.
func (p *MissPredictor) Stats() PredictorStats { return p.stats }

// ResetStats clears the prediction counters without forgetting region counts.
func (p *MissPredictor) ResetStats() { p.stats = PredictorStats{} }

// lookup returns region's table entry, or nil when its chunk was never
// written (every entry there is invalid).
func (p *MissPredictor) lookup(region addr.Page) *predictorEntry {
	i := uint64(region) & p.mask
	if chunk := p.regions[i>>predictorChunkBits]; chunk != nil {
		return &chunk[i&(1<<predictorChunkBits-1)]
	}
	return nil
}

// slot is lookup for the write paths: it first allocates region's chunk if
// no entry in it was ever written.
func (p *MissPredictor) slot(region addr.Page) *predictorEntry {
	i := uint64(region) & p.mask
	chunk := &p.regions[i>>predictorChunkBits]
	if *chunk == nil {
		*chunk = make([]predictorEntry, min(p.mask+1, 1<<predictorChunkBits))
	}
	return &(*chunk)[i&(1<<predictorChunkBits-1)]
}

// Predict returns true if the predictor expects block b to hit in the DRAM
// cache. It records the prediction; the caller must later call Resolve with
// the actual outcome so the counters adapt and accuracy statistics stay
// meaningful.
func (p *MissPredictor) Predict(b addr.Block) bool {
	p.stats.Predictions++
	e := p.lookup(addr.PageOfBlock(b))
	hit := e != nil && e.valid && e.region == addr.PageOfBlock(b) && e.counter >= predictorThreshold
	if hit {
		p.stats.PredictedHit++
	} else {
		p.stats.PredictedMiss++
	}
	p.lastRegion = addr.PageOfBlock(b)
	return hit
}

// Resolve records the actual outcome of the most recent prediction (for the
// region passed to Predict): the counter trains towards the observed
// behaviour, and mispredictions are counted.
func (p *MissPredictor) Resolve(predictedHit, actualHit bool) {
	switch {
	case predictedHit && !actualHit:
		p.stats.FalseHits++
	case !predictedHit && actualHit:
		p.stats.FalseMisses++
	}
	e := p.slot(p.lastRegion)
	if !e.valid || e.region != p.lastRegion {
		// Adopt the region so its behaviour can be learned.
		*e = predictorEntry{region: p.lastRegion, valid: true}
	}
	if actualHit {
		if e.counter < predictorMax {
			e.counter++
		}
	} else if e.counter > 0 {
		e.counter--
	}
}

// BlockFilled informs the predictor that block b has been inserted into the
// DRAM cache; the region is primed to predict hits.
func (p *MissPredictor) BlockFilled(b addr.Block) {
	region := addr.PageOfBlock(b)
	e := p.slot(region)
	if e.valid && e.region == region {
		// A fill is strong evidence the region is becoming resident: prime
		// the counter to at least the prediction threshold.
		switch {
		case e.counter < predictorThreshold:
			e.counter = predictorThreshold
		case e.counter < predictorMax:
			e.counter++
		}
		return
	}
	// Displace whatever region was tracked here; the newly filled region
	// starts at the prediction threshold.
	*e = predictorEntry{region: region, counter: predictorThreshold, valid: true}
}

// BlockEvicted informs the predictor that block b has left the DRAM cache
// (eviction or invalidation); the region's confidence decays.
func (p *MissPredictor) BlockEvicted(b addr.Block) {
	region := addr.PageOfBlock(b)
	if e := p.lookup(region); e != nil && e.valid && e.region == region && e.counter > 0 {
		e.counter--
	}
}
