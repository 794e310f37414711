package c3d

import (
	"context"
	"encoding/json"
	"io"

	"c3d/internal/experiments"
	"c3d/pkg/c3d/api"
)

// VerifyRequest parameterises protocol verification (§IV-C). The zero value
// verifies the default configurations: 2- and 3-socket machines, one load
// and one store per core, both protocol variants, exhaustively.
//
// Like Params, it is a defined type over its wire declaration,
// api.VerifySpec, which documents the fields: convert with
// api.VerifySpec(r) / VerifyRequest(w).
type VerifyRequest api.VerifySpec

// validate rejects negative bounds rather than running a default the caller
// never asked for.
func (r VerifyRequest) validate() error {
	return checkNonNegative("verify ",
		namedInt{"sockets", r.Sockets},
		namedInt{"loads", r.LoadsPerCore},
		namedInt{"stores", r.StoresPerCore},
		namedInt{"max_states", r.MaxStates})
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
	if err := req.validate(); err != nil {
		return nil, err
	}
	result, err := experiments.Verify(ctx, experiments.VerifyConfig{
		VerifySpec:  api.VerifySpec(req),
		Parallelism: s.p.Parallelism,
		Progress:    s.progress,
	})
	return &result, err
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
