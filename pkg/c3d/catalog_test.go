package c3d

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWorkloadCatalog pins how names reach the workload catalog — the
// built-in workloads and the embedded spec presets — through every SDK
// entry point that resolves one: the unknown-name error, a campaign naming
// a preset, a spec document over a preset base, the row order of a campaign
// mixing a preset with a per-session spec, and the preset document bytes.
func TestWorkloadCatalog(t *testing.T) {
	ctx := context.Background()

	t.Run("unknown name error", func(t *testing.T) {
		_, err := ParseWorkload("not-a-workload")
		want := `c3d: workload: unknown workload "not-a-workload" (known: [bursty-tail canneal cassandra classification facesim fluidanimate freqmine mcf multitenant-mix nutch phase-shift streamcluster tunkrank])`
		if err == nil || err.Error() != want {
			t.Fatalf("ParseWorkload(not-a-workload) error:\n got %v\nwant %s", err, want)
		}
	})

	t.Run("campaign names a preset", func(t *testing.T) {
		sess := session(t, Params{Quick: true, Accesses: 200, Workloads: []string{"bursty-tail"}})
		if _, err := sess.Experiment(ctx, "table1"); err != nil {
			t.Fatalf("table1 over bursty-tail: %v", err)
		}
	})

	t.Run("spec over a preset base", func(t *testing.T) {
		sess := session(t, Params{Spec: []byte(`{"version":1,"name":"tail-child","base":"bursty-tail","seed":5}`)})
		src, err := sess.TraceSource("")
		if err != nil {
			t.Fatalf("TraceSource: %v", err)
		}
		if src.Name() != "tail-child" {
			t.Errorf("trace source name = %q, want tail-child", src.Name())
		}
	})

	t.Run("row order", func(t *testing.T) {
		sess := session(t, Params{
			Quick:     true,
			Accesses:  200,
			Spec:      []byte(`{"version":1,"name":"aaa","base":"facesim"}`),
			Workloads: []string{"aaa", "bursty-tail"},
		})
		res, err := sess.Experiment(ctx, "table1")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range res.Table.Rows() {
			if row[0] != "average" {
				got = append(got, row[0])
			}
		}
		if want := []string{"bursty-tail", "aaa"}; !reflect.DeepEqual(got, want) {
			t.Errorf("table1 rows = %v, want %v", got, want)
		}
	})

	t.Run("preset bytes", func(t *testing.T) {
		names := WorkloadSpecPresets()
		if len(names) == 0 {
			t.Fatal("no workload-spec presets")
		}
		for _, name := range names {
			got, err := WorkloadSpecPreset(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "wspec", "presets", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("WorkloadSpecPreset(%s) differs from the preset file", name)
			}
		}
	})
}
