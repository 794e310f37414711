package wspec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"c3d/internal/trace"
	"c3d/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// encode walks every stream of a source into the chunked v2 format.
func encode(t *testing.T, src trace.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeSource(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMirrorSpecMatchesRegistry is the spec-vs-registry equivalence check:
// a document that names a registry workload as its base and adds no knobs
// must compile to a byte-identical stream — the DSL is a superset of the
// registry, not a parallel implementation.
func TestMirrorSpecMatchesRegistry(t *testing.T) {
	c, err := Load([]byte(`{"version":1,"name":"facesim","base":"facesim"}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 500}
	specSrc, err := workload.NewSource(c.Spec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	regSrc, err := workload.NewSource(workload.MustGet("facesim"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encode(t, specSrc), encode(t, regSrc); !bytes.Equal(got, want) {
		t.Fatalf("mirror spec stream (%d bytes) differs from registry stream (%d bytes)", len(got), len(want))
	}
}

// loadPreset compiles a preset document afresh from its embedded bytes.
func loadPreset(t *testing.T, name string) *Compiled {
	t.Helper()
	raw, ok := PresetDoc(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	c, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPresetStreamsDeterministic compiles every shipped preset and encodes
// it twice from independently constructed sources: identical (spec, seed)
// must give bit-identical streams.
func TestPresetStreamsDeterministic(t *testing.T) {
	opts := workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 200}
	for _, name := range []string{"multitenant-mix", "phase-shift", "bursty-tail"} {
		t.Run(name, func(t *testing.T) {
			a, err := workload.NewSource(loadPreset(t, name).Spec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.NewSource(loadPreset(t, name).Spec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			first := encode(t, a)
			if len(first) == 0 {
				t.Fatal("empty stream")
			}
			if !bytes.Equal(first, encode(t, b)) {
				t.Fatal("two compilations of the same preset produced different streams")
			}
			// Re-walking the same source must also replay identically:
			// machine.RunSource can open every stream twice.
			if !bytes.Equal(first, encode(t, a)) {
				t.Fatal("re-encoding the same source produced different bytes")
			}
		})
	}
}

// TestPresetGolden pins the exact compiled stream of the bursty-tail preset
// at reduced options. Any change to spec compilation, the arrival samplers,
// the interleaver or the generator seeds breaks this file on purpose.
//
// Regenerate with:
//
//	go test ./internal/wspec -run TestPresetGolden -update
func TestPresetGolden(t *testing.T) {
	src, err := workload.NewSource(loadPreset(t, "bursty-tail").Spec(),
		workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 64})
	if err != nil {
		t.Fatal(err)
	}
	got := encode(t, src)
	golden := filepath.Join("testdata", "bursty-tail-golden.c3dt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compiled stream (%d bytes) differs from golden %s (%d bytes); if the change is intended, regenerate with -update", len(got), golden, len(want))
	}
}

// TestFingerprintTracksDocument checks that distinct documents get distinct
// fingerprints and identical documents identical ones — the experiment
// trace cache keys on it.
func TestFingerprintTracksDocument(t *testing.T) {
	a, err := Load([]byte(`{"version":1,"name":"a","base":"facesim"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load([]byte(`{"version":1,"name":"a","base":"facesim"}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load([]byte(`{"version":1,"name":"a","base":"facesim","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec().Fingerprint == "" {
		t.Fatal("compiled spec has no fingerprint")
	}
	if a.Spec().Fingerprint != b.Spec().Fingerprint {
		t.Error("identical documents compiled to different fingerprints")
	}
	if a.Spec().Fingerprint == c.Spec().Fingerprint {
		t.Error("distinct documents compiled to the same fingerprint")
	}
}
