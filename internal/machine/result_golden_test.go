package machine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c3d/internal/sample"
	"c3d/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden RunResult fixture")

// TestRunResultJSONMatchesGolden pins the marshalled RunResult of a small
// 4-socket run for every registered design, with the broadcast filter off and
// on, in full detail and sampled. It covers what the fig6 golden does not:
// every counter, the fabric split, the DRAM cache statistics, the filter's
// elision count and the sampled extrapolation of each of them.
//
// If a deliberate simulator change moves these bytes, regenerate with:
//
//	go test ./internal/machine -run TestRunResultJSONMatchesGolden -update
//
// and say so in the commit message.
func TestRunResultJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden RunResult runs skipped in -short mode")
	}
	var got bytes.Buffer
	for _, wl := range []string{"streamcluster", "facesim"} {
		tr := workload.MustGenerate(workload.MustGet(wl),
			workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 4000})
		for _, design := range Designs() {
			for _, filter := range []bool{false, true} {
				for _, sampled := range []bool{false, true} {
					cfg := DefaultConfig(4, design)
					cfg.Scale = 512
					cfg.CoresPerSocket = 2
					cfg.EnableBroadcastFilter = filter
					opts := DefaultRunOptions()
					mode := "full"
					if sampled {
						opts.Sampling = sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}
						mode = "sampled"
					}
					res, err := New(cfg).Run(context.Background(), tr, opts)
					if err != nil {
						t.Fatalf("%s/%s filter=%v %s: %v", wl, design, filter, mode, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s/%s/filter=%v/%s %s\n", wl, design, filter, mode, b)
				}
			}
		}
	}

	path := filepath.Join("testdata", "runresult-golden.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := goldenLines(want)
	for name, line := range goldenLines(got.Bytes()) {
		if w, ok := wantLines[name]; !ok {
			t.Errorf("%s: no golden line", name)
		} else if w != line {
			t.Errorf("%s drifted from the golden bytes:\ngot:  %s\nwant: %s", name, line, w)
		}
		delete(wantLines, name)
	}
	for name := range wantLines {
		t.Errorf("%s: golden line no longer produced", name)
	}
	if !t.Failed() {
		t.Error("RunResult bytes differ from the golden file only in line order")
	}
}

// goldenLines splits the fixture into its "<case> <json>" lines keyed by case.
func goldenLines(b []byte) map[string]string {
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, line, _ := strings.Cut(sc.Text(), " ")
		out[name] = line
	}
	return out
}
