package c3d

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"c3d/internal/experiments"
	"c3d/pkg/c3d/api"
)

// ExperimentInfo describes one runnable experiment of the paper's
// evaluation: its id (accepted by Experiment), the table or figure it
// reproduces and a one-line summary. It is the capabilities document's
// entry type.
type ExperimentInfo = api.ExperimentInfo

// Experiments lists every experiment in presentation order.
func Experiments() []ExperimentInfo {
	entries := experiments.All()
	out := make([]ExperimentInfo, len(entries))
	for i, e := range entries {
		out[i] = ExperimentInfo{ID: e.ID, Paper: e.Paper, Description: e.Description}
	}
	return out
}

// ExperimentIDs lists every experiment id in presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentResult is one experiment's outcome: its identity plus the
// rendered result table. The JSON form is the wire format shared by
// `c3dexp -json` and the c3dd result endpoint — byte-identical between them
// by construction (both call WriteResultsJSON).
type ExperimentResult struct {
	ID          string `json:"id"`
	Paper       string `json:"paper"`
	Description string `json:"description"`
	Table       *Table `json:"table"`
}

// Experiment runs one experiment by id under the session configuration.
// Results are deterministic: bit-identical at any Params.Parallelism, and
// whether a trace is replayed from the memo or streamed from its generator.
//
// Cancelling the context stops the campaign early: no new simulation starts,
// in-flight simulations abort between accesses, and ctx's error is returned.
func (s *Session) Experiment(ctx context.Context, id string) (*ExperimentResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	entry, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	result, err := entry.Run(ctx, s.experimentsConfig())
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		ID:          entry.ID,
		Paper:       entry.Paper,
		Description: entry.Description,
		Table:       result.Table(),
	}, nil
}

// Sweep runs a sequence of experiments (all of them when ids is empty or
// contains "all") and returns one result per experiment, in presentation
// order. It stops at the first failing experiment.
func (s *Session) Sweep(ctx context.Context, ids ...string) ([]ExperimentResult, error) {
	expand := len(ids) == 0
	for _, id := range ids {
		if id == "all" {
			expand = true
			break
		}
	}
	if expand {
		ids = experiments.IDs()
	}
	out := make([]ExperimentResult, 0, len(ids))
	for _, id := range ids {
		res, err := s.Experiment(ctx, id)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

// WriteResultsJSON writes experiment results in the canonical machine-
// readable form: a two-space-indented JSON array. cmd/c3dexp -json and the
// c3dd result endpoint both emit exactly these bytes, which is what makes
// "server result == CLI result" checkable with cmp.
func WriteResultsJSON(w io.Writer, results []ExperimentResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
