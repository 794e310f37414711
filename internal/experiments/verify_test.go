package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"c3d/pkg/c3d/api"
)

// TestVerifyDeterministicAcrossParallelism is the model-checking counterpart
// of the sweep determinism contract: the §IV-C verification serialised to
// JSON must be byte-identical whether the checker explores with one worker or
// many. cmd/c3dcheck -json exposes exactly this serialisation, and CI diffs
// it across -parallel values.
func TestVerifyDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []byte {
		res, verr := Verify(context.Background(), VerifyConfig{
			VerifySpec:  api.VerifySpec{Sockets: 2},
			Parallelism: parallelism,
		})
		if verr != nil {
			t.Fatal(verr)
		}
		if !res.Passed() {
			t.Fatalf("verification failed at parallelism %d:\n%s", parallelism, res.Table())
		}
		out, err := json.Marshal(res.Reports)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("verification reports differ across parallelism levels:\n  serial: %s\nparallel: %s", serial, parallel)
	}
}

// TestVerifyBoundedDeterministic exercises the deterministic-truncation path
// (frontier trimming) through the experiment layer.
func TestVerifyBoundedDeterministic(t *testing.T) {
	run := func(parallelism int) []byte {
		res, verr := Verify(context.Background(), VerifyConfig{
			VerifySpec:  api.VerifySpec{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 2, MaxStates: 5000, BaseOnly: true},
			Parallelism: parallelism,
		})
		if verr != nil {
			t.Fatal(verr)
		}
		out, err := json.Marshal(res.Reports)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("bounded verification reports differ across parallelism levels")
	}
}

// TestVerifyZeroConfigKeepsRunSettings checks a zero VerifyConfig takes the
// default bounds field by field and keeps the caller's run-time settings:
// progress reaches the caller's callback for the default 1-load 1-store
// model. The search is cancelled at the first tick.
func TestVerifyZeroConfigKeepsRunSettings(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var models []string
	res, err := Verify(ctx, VerifyConfig{Progress: func(e Event) {
		if e.Kind == EventStatesExplored {
			models = append(models, e.Job)
			cancel()
		}
	}})
	if len(models) == 0 {
		t.Fatalf("no states-explored event reached the caller's callback (err %v)", err)
	}
	if models[0] != "c3d/2-socket/1L1S" {
		t.Errorf("first progress event names %q, want the default c3d/2-socket/1L1S model", models[0])
	}
	if !errors.Is(err, context.Canceled) || len(res.Reports) == 0 {
		t.Errorf("cancelled verification returned %d reports, err %v", len(res.Reports), err)
	}
}

// TestVerifyDefaultCounts pins the size of the state space the default
// verification explores: c3dcheck's four configurations, each searched
// exhaustively. A refactor of the protocol model must leave every count as
// it is; a deliberate protocol change updates the pin and says why.
func TestVerifyDefaultCounts(t *testing.T) {
	type counts struct{ states, transitions, quiescent int }
	want := map[string]counts{
		"c3d/2-socket/1L1S":          {4012, 10280, 8},
		"c3d-full-dir/2-socket/1L1S": {3640, 9364, 6},
		"c3d/3-socket/1L1S":          {445289, 1505904, 198},
		"c3d-full-dir/3-socket/1L1S": {336827, 1106862, 144},
	}
	res, err := Verify(context.Background(), VerifyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("default verification failed:\n%s", res.Table())
	}
	if len(res.Reports) != len(want) {
		t.Fatalf("default verification ran %d configurations, want %d:\n%s", len(res.Reports), len(want), res.Table())
	}
	for _, rep := range res.Reports {
		got := counts{rep.StatesExplored, rep.TransitionsSeen, rep.QuiescentStates}
		if w, ok := want[rep.Model]; !ok || got != w {
			t.Errorf("%s: states/transitions/quiescent = %d/%d/%d, want %d/%d/%d",
				rep.Model, got.states, got.transitions, got.quiescent, w.states, w.transitions, w.quiescent)
		}
	}
}
