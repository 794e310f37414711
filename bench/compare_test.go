package main

import (
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "op_p50_s", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "accesses_per_s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"slower past bound", lat, []float64{1, 1, 1}, []float64{1.2, 1.2, 1.2}, verdictWorse},
		{"faster past bound", lat, []float64{1, 1, 1}, []float64{0.8, 0.8, 0.8}, verdictBetter},
		{"within bound", lat, []float64{1, 1, 1}, []float64{1.05, 1.06, 1.04}, verdictUnchanged},
		{"noisy parent", lat, []float64{0.5, 1, 1.5}, []float64{1.2, 1.2, 1.2}, verdictUnresolved},
		{"noisy but separated", lat, []float64{0.9, 1.0, 1.1}, []float64{1.5, 1.6, 1.7}, verdictWorse},
		{"noisy, separated, within bound", lat, []float64{0.94, 1.0, 1.06}, []float64{0.91, 0.92, 0.93}, verdictUnchanged},
		{"throughput fell", rate, []float64{100}, []float64{80}, verdictWorse},
		{"throughput rose", rate, []float64{100}, []float64{120}, verdictBetter},
		{"single runs within bound", rate, []float64{100}, []float64{95}, verdictUnchanged},
	} {
		if got := verdict(tc.d, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func oneRun(rate float64, failed int, model float64, digest string) *fileReport {
	return &fileReport{Runs: [][]*workloadReport{{{
		Workload:  "sim-miss",
		Attempted: 10,
		Failed:    failed,
		Metrics: map[string]metric{
			"accesses_per_s": {Value: rate},
			"op_p50_s":       {Value: 1e6 / rate},
		},
		Model:  map[string]float64{"model.cycles": model},
		Digest: digest,
	}}}}
}

func TestCompareReports(t *testing.T) {
	for _, tc := range []struct {
		name          string
		change        *fileReport
		regressed     bool
		wantInOutput  string
		wantNotOutput string
	}{
		{"same", oneRun(1e6, 0, 5, "aa"), false, "identical", "model changed"},
		{"slower", oneRun(6e5, 0, 5, "aa"), true, "worse", "model changed"},
		{"more failures", oneRun(1e6, 1, 5, "aa"), true, "1/10", ""},
		{"model moved", oneRun(1e6, 0, 6, "bb"), false, "model changed: [model.cycles digest]", ""},
	} {
		var out strings.Builder
		got := compareReports(oneRun(1e6, 0, 5, "aa"), tc.change, &out)
		if got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		if !strings.Contains(out.String(), tc.wantInOutput) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantInOutput, out.String())
		}
		if tc.wantNotOutput != "" && strings.Contains(out.String(), tc.wantNotOutput) {
			t.Errorf("%s: output has %q:\n%s", tc.name, tc.wantNotOutput, out.String())
		}
	}
}
