package c3d

import (
	"context"
	"encoding/json"
	"io"

	"c3d/internal/experiments"
)

// VerifyRequest parameterises protocol verification (§IV-C). The zero value
// verifies the default configurations: 2- and 3-socket machines, one load
// and one store per core, both protocol variants, exhaustively.
type VerifyRequest struct {
	// Sockets is the largest socket count to verify (default 3; the
	// 2-socket configuration is always included).
	Sockets int
	// LoadsPerCore and StoresPerCore bound each core's operations
	// (default 1 each).
	LoadsPerCore  int
	StoresPerCore int
	// MaxStates truncates the search (0 = exhaustive).
	MaxStates int
	// BaseOnly skips the c3d-full-dir protocol variant.
	BaseOnly bool
}

// Verify model-checks the C3D coherence protocol: SWMR, the data-value
// invariant (per-location sequential consistency) and absence of deadlock,
// by exhaustive explicit-state exploration. Worker count comes from
// Params.Parallelism; reports are bit-identical at any value.
//
// Cancelling the context aborts the searches; the error is ctx's and the
// returned result holds the partial reports explored so far (marked
// Interrupted).
func (s *Session) Verify(ctx context.Context, req VerifyRequest) (*VerifyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := experiments.VerifyConfig{
		Sockets:               req.Sockets,
		LoadsPerCore:          req.LoadsPerCore,
		StoresPerCore:         req.StoresPerCore,
		MaxStates:             req.MaxStates,
		IncludeFullDirVariant: !req.BaseOnly,
		Parallelism:           s.p.Parallelism,
		Progress:              s.progress,
	}
	if cfg.Sockets <= 0 {
		cfg.Sockets = 3
	}
	if cfg.LoadsPerCore <= 0 {
		cfg.LoadsPerCore = 1
	}
	if cfg.StoresPerCore <= 0 {
		cfg.StoresPerCore = 1
	}
	result, err := experiments.Verify(ctx, cfg)
	if err != nil {
		return &result, err
	}
	return &result, nil
}

// WriteReportsJSON writes model-checking reports in the canonical
// machine-readable form: a two-space-indented JSON array with no wall-clock
// fields, so reports can be compared byte-for-byte across runs, machines and
// parallelism levels. cmd/c3dcheck -json and the c3dd result endpoint both
// emit exactly these bytes.
func WriteReportsJSON(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
