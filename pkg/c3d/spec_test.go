package c3d

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c3d/internal/trace"
	"c3d/pkg/c3d/api"
)

// specDoc is a small workload-spec document over a registry base: cheap to
// run, distinct name, deterministic.
const specDoc = `{"version":1,"name":"spec-test-mix","base":"streamcluster","seed":11}`

// TestWorkloadSpecValidatesEagerly checks a bad document fails when the
// session is built, before any job could be queued on it.
func TestWorkloadSpecValidatesEagerly(t *testing.T) {
	cases := map[string]string{
		"malformed json":   `{"version":1,`,
		"unknown version":  `{"version":9,"name":"a","base":"streamcluster"}`,
		"unknown base":     `{"version":1,"name":"a","base":"not-a-workload"}`,
		"no mode selected": `{"version":1,"name":"a"}`,
	}
	for name, doc := range cases {
		if _, err := (Params{Spec: []byte(doc)}).Session(); err == nil {
			t.Errorf("%s: Session accepted the document", name)
		}
	}
	if _, err := ReadWorkloadSpec("/does/not/exist.json"); err == nil {
		t.Error("ReadWorkloadSpec accepted an unreadable spec file")
	}
}

// TestSimulateWorkloadSpec runs a spec document through Simulate: the empty
// name and the spec's own name resolve to the compiled workload, registry
// names keep working, and an unknown name's error mentions the loaded spec.
func TestSimulateWorkloadSpec(t *testing.T) {
	sess := session(t, Params{Spec: []byte(specDoc), Quick: true, Threads: 4, Accesses: 300})
	byEmpty, err := sess.Simulate(context.Background(), "")
	if err != nil {
		t.Fatalf("Simulate(\"\"): %v", err)
	}
	byName, err := sess.Simulate(context.Background(), "spec-test-mix")
	if err != nil {
		t.Fatalf("Simulate(spec name): %v", err)
	}
	if byEmpty.Cycles != byName.Cycles || byEmpty.Instructions != byName.Instructions {
		t.Errorf("empty-name and spec-name runs differ: %+v vs %+v", byEmpty.RunResult, byName.RunResult)
	}
	if _, err := sess.Simulate(context.Background(), "nutch"); err != nil {
		t.Errorf("registry workload stopped resolving with a spec loaded: %v", err)
	}
	if _, err := sess.Simulate(context.Background(), "not-a-workload"); err == nil {
		t.Error("unknown name resolved")
	} else if !strings.Contains(err.Error(), "spec-test-mix") {
		t.Errorf("unknown-name error does not mention the loaded spec: %v", err)
	}
}

// TestSimulateSpecMatchesRegistryMirror pins the SDK-level equivalence: a
// mirror document over a registry workload simulates bit-identically to
// naming the workload directly.
func TestSimulateSpecMatchesRegistryMirror(t *testing.T) {
	p := Params{Quick: true, Threads: 4, Accesses: 300}
	regSess := session(t, p)
	p.Spec = []byte(`{"version":1,"name":"streamcluster","base":"streamcluster"}`)
	specSess := session(t, p)
	got, err := specSess.Simulate(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := regSess.Simulate(context.Background(), "streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.RunResult, want.RunResult) {
		t.Fatalf("mirror spec run differs from registry run:\n got %+v\nwant %+v", got.RunResult, want.RunResult)
	}
}

// TestExperimentSpecParallelInvariance is the determinism acceptance check
// at the campaign layer: an experiment over a spec workload must emit
// byte-identical JSON at parallelism 1 and 8.
func TestExperimentSpecParallelInvariance(t *testing.T) {
	run := func(parallel int) []byte {
		t.Helper()
		p := Params{
			Quick:       true,
			Threads:     4,
			Accesses:    200,
			Parallelism: parallel,
			Spec:        json.RawMessage(specDoc),
		}
		sess, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Experiment(context.Background(), "table1")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteResultsJSON(&buf, []ExperimentResult{*res}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := run(1)
	eight := run(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("experiment results differ across parallelism:\n-- parallel 1 --\n%s\n-- parallel 8 --\n%s", one, eight)
	}
	if !bytes.Contains(one, []byte("spec-test-mix")) {
		t.Fatalf("spec workload missing from experiment table:\n%s", one)
	}
}

// TestValidateJobSpecWorkloadSpec covers the daemon's door check for spec
// jobs: a spec document stands in for a workload name, and a bad document
// is rejected at submission.
func TestValidateJobSpecWorkloadSpec(t *testing.T) {
	ok := api.JobSpec{
		Kind:   api.KindSimulate,
		Params: api.Params{Quick: true, Spec: json.RawMessage(specDoc)},
	}
	if err := ValidateJobSpec(ok); err != nil {
		t.Errorf("spec job with empty workload name rejected: %v", err)
	}
	ok.Workload = "spec-test-mix"
	if err := ValidateJobSpec(ok); err != nil {
		t.Errorf("spec job naming the spec rejected: %v", err)
	}
	ok.Workload = "not-a-workload"
	if err := ValidateJobSpec(ok); err == nil {
		t.Error("spec job with unknown workload name accepted")
	}
	bad := api.JobSpec{
		Kind:   api.KindSimulate,
		Params: api.Params{Quick: true, Spec: json.RawMessage(`{"version":1}`)},
	}
	if err := ValidateJobSpec(bad); err == nil {
		t.Error("malformed spec document accepted")
	}
	noSpec := api.JobSpec{Kind: api.KindSimulate, Params: api.Params{Quick: true}}
	if err := ValidateJobSpec(noSpec); err == nil {
		t.Error("simulate job with neither workload nor spec accepted")
	}
}

// TestWorkloadHelpers exercises the Workloads/ParseWorkload pair added to
// mirror Topologies/ParseTopology over the workload catalog.
func TestWorkloadHelpers(t *testing.T) {
	info, err := ParseWorkload("facesim")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "facesim" || !info.InSuite {
		t.Errorf("ParseWorkload(facesim) = %+v, want suite member", info)
	}
	if _, err := ParseWorkload("not-a-workload"); err == nil {
		t.Error("ParseWorkload accepted an unknown name")
	} else if !strings.Contains(err.Error(), "facesim") {
		t.Errorf("unknown-workload error does not list known names: %v", err)
	}
	byName := map[string]WorkloadInfo{}
	for _, w := range Workloads() {
		byName[w.Name] = w
	}
	preset, ok := byName["multitenant-mix"]
	if !ok {
		t.Fatal("embedded preset multitenant-mix not listed by Workloads()")
	}
	if preset.InSuite {
		t.Error("preset marked as a suite member")
	}
	if !byName["facesim"].InSuite {
		t.Error("facesim not marked as a suite member")
	}
}

// TestTraceFixturesOpenAlike opens the committed v1 and v2 golden trace
// fixtures two ways each — OpenTrace, and a workload-spec document whose
// "trace" field names the file — and requires all four sources to yield the
// same records, section by section and record by record.
func TestTraceFixturesOpenAlike(t *testing.T) {
	var want [][]trace.Record
	var wantFrom string
	for _, file := range []string{"golden-v1.c3dt", "golden-v2.c3dt"} {
		path, err := filepath.Abs(filepath.Join("..", "..", "internal", "trace", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		tf, err := OpenTrace(path)
		if err != nil {
			t.Fatalf("OpenTrace(%s): %v", file, err)
		}
		defer tf.Close()

		doc, err := json.Marshal(map[string]any{"version": 1, "name": "fixture", "trace": path})
		if err != nil {
			t.Fatal(err)
		}
		viaSpec, err := session(t, Params{Spec: doc}).TraceSource("")
		if err != nil {
			t.Fatalf("spec over %s: %v", file, err)
		}

		for _, tc := range []struct {
			how string
			src TraceSource
		}{{"OpenTrace", tf}, {"spec", viaSpec}} {
			from := file + " via " + tc.how
			got := traceSections(t, from, tc.src)
			if want == nil {
				want, wantFrom = got, from
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s has %d sections, %s has %d", from, len(got), wantFrom, len(want))
			}
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("%s section %d has %d records, %s has %d", from, s, len(got[s]), wantFrom, len(want[s]))
				}
				for i := range want[s] {
					if got[s][i] != want[s][i] {
						t.Fatalf("%s section %d record %d = %+v, %s has %+v", from, s, i, got[s][i], wantFrom, want[s][i])
					}
				}
			}
		}
	}
	if len(want) < 2 || len(want[1]) == 0 {
		t.Fatalf("fixture decoded to %d sections; want an init section and at least one non-empty thread", len(want))
	}
}

// traceSections materialises src: index 0 is the init section, index t+1 is
// thread t.
func traceSections(t *testing.T, from string, src TraceSource) [][]trace.Record {
	t.Helper()
	tr, err := trace.Materialize(src)
	if err != nil {
		t.Fatalf("%s: %v", from, err)
	}
	return append([][]trace.Record{tr.Init}, tr.Parallel...)
}
