package c3d

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestFig6QuickJSONMatchesGolden pins the bytes of `c3dexp -exp <id> -quick
// -json` for two experiments: fig6, against a fixture captured before the
// design-registry and topology refactor, and shared, the only experiment
// that runs the memory-side DRAM cache design. Dispatch and engine
// refactors must provably leave the paper configurations unaffected. The
// test reproduces the CLI's exact code path (session from a quick Params,
// Experiment, WriteResultsJSON), so a mismatch here is a mismatch in shipped
// output.
//
// If a deliberate simulator change moves these numbers, regenerate with:
//
//	go run ./cmd/c3dexp -exp fig6 -quick -json > pkg/c3d/testdata/fig6-quick-golden.json
//	go run ./cmd/c3dexp -exp shared -quick -json > pkg/c3d/testdata/shared-quick-golden.json
//
// and say so in the commit message — these files guard against accidental
// drift, not against intentional model changes.
func TestFig6QuickJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick campaigns (45 and 27 simulations) skipped in -short mode")
	}
	sess, err := (Params{Quick: true}).Session()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ exp, golden string }{
		{"fig6", "testdata/fig6-quick-golden.json"},
		{"shared", "testdata/shared-quick-golden.json"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Experiment(context.Background(), tc.exp)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := WriteResultsJSON(&got, []ExperimentResult{*res}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s quick JSON drifted from the committed golden bytes:\ngot:  %s\nwant: %s", tc.exp, got.Bytes(), want)
			}
		})
	}
}
