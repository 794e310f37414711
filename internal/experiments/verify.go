package experiments

import (
	"context"
	"fmt"

	"c3d/internal/core"
	"c3d/internal/mc"
	"c3d/internal/stats"
	"c3d/pkg/c3d/api"
)

// --- §IV-C: protocol verification ---

// VerifyConfig parameterises the model-checking experiment: the wire
// bounds of a verify job plus the run-time knobs. Zero bounds mean the
// defaults — the 2- and 3-socket configurations with one load and one store
// per core, both protocol variants, searched exhaustively.
type VerifyConfig struct {
	api.VerifySpec
	// Parallelism is the number of model-checker workers per configuration
	// (<= 0 means GOMAXPROCS). Reports are bit-identical at any value.
	Parallelism int
	// Progress, if non-nil, receives a structured EventStatesExplored event
	// per checker progress tick (Event.Job names the model, Event.States the
	// count).
	Progress func(Event)
}

// VerifyResult collects the model-checking reports.
type VerifyResult struct {
	Reports []mc.Report
}

// Passed reports whether every explored configuration satisfied every
// invariant.
func (r VerifyResult) Passed() bool {
	for _, rep := range r.Reports {
		if !rep.Passed() {
			return false
		}
	}
	return len(r.Reports) > 0
}

// Table summarises the reports.
func (r VerifyResult) Table() *stats.Table {
	t := stats.NewTable("model", "states", "transitions", "depth", "terminal", "result")
	for _, rep := range r.Reports {
		status := "PASS"
		if !rep.Passed() {
			status = "FAIL"
		} else if rep.Truncated {
			status = "PASS (bounded)"
		}
		t.AddRow(rep.Model,
			fmt.Sprintf("%d", rep.StatesExplored),
			fmt.Sprintf("%d", rep.TransitionsSeen),
			fmt.Sprintf("%d", rep.MaxDepthReached),
			fmt.Sprintf("%d", rep.QuiescentStates),
			status)
	}
	return t
}

// Verify model-checks the C3D protocol the way §IV-C does: exhaustive
// exploration of small configurations, checking SWMR, the data-value
// invariant (per-location SC) and absence of deadlock.
//
// Cancelling the context aborts the searches; the partial reports explored so
// far are returned alongside ctx's error.
func Verify(ctx context.Context, cfg VerifyConfig) (VerifyResult, error) {
	if ctx == nil {
		ctx = context.Background()
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
	var result VerifyResult
	run := func(sockets int, trackDRAM bool) {
		if ctx.Err() != nil {
			return
		}
		model := core.NewProtocolModel(core.ProtocolConfig{
			Sockets:        sockets,
			LoadsPerCore:   cfg.LoadsPerCore,
			StoresPerCore:  cfg.StoresPerCore,
			TrackDRAMCache: trackDRAM,
		})
		var progress func(int)
		if cfg.Progress != nil {
			progress = func(states int) {
				cfg.Progress(Event{Kind: EventStatesExplored, Job: model.Name(), States: states})
			}
		}
		result.Reports = append(result.Reports, mc.Run(ctx, model, mc.Options{
			MaxStates:   cfg.MaxStates,
			Parallelism: cfg.Parallelism,
			Progress:    progress,
		}))
	}
	// Always include the 2-socket configuration (fast, exhaustive), then the
	// configured size if larger.
	run(2, false)
	if !cfg.BaseOnly {
		run(2, true)
	}
	if cfg.Sockets > 2 {
		run(cfg.Sockets, false)
		if !cfg.BaseOnly {
			run(cfg.Sockets, true)
		}
	}
	return result, ctx.Err()
}
