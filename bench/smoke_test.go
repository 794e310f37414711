package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process, so the
// smoke test exercises the same parent/child path the benchmark runs.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, declared) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n harness        %+v", bf.EndToEnd, declared)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerUnits()) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n harness        %+v", bf.PerLayer, perLayerUnits())
	}
}

// TestSmokeAllWorkloads runs every workload at tiny sizes, traced, through
// child processes, and checks each reports exactly the metrics
// BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}
	for _, w := range workloads {
		o := childOpts{Workload: w.name, Seed: 1, Seconds: 0.1, Trace: true, Size: tinySize, Root: root}
		rep, err := measureWorkload(context.Background(), exe, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct() {
			t.Errorf("%s: not correct: %d/%d failed %v, guard %q", w.name, rep.Failed, rep.Attempted, rep.Errors, rep.Guard)
		}
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			if err := printSummary(&buf, rep, traced); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s: summary line: %v", w.name, err)
			}
			want := names(bf.EndToEnd)
			if traced {
				want = names(bf.PerLayer)
			}
			if got := sortedKeys(line.Metrics); !reflect.DeepEqual(got, sortedStrings(want)) {
				t.Errorf("%s (traced %v): metrics %v, want %v", w.name, traced, got, want)
			}
			if line.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.name, line.Attempted)
			}
		}
		sum := 0.0
		for _, l := range layers {
			sum += rep.Layers[l+".cpu_share"]
		}
		// A tiny op may finish before the profiler takes a sample.
		if sum != 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v", w.name, sum)
		}
	}
}

func sortedStrings(s []string) []string {
	m := map[string]bool{}
	for _, v := range s {
		m[v] = true
	}
	return sortedKeys(m)
}
