package machine

import (
	"reflect"
	"strings"
	"testing"

	"c3d/internal/core"
)

func TestDesignsOrderAndRegistration(t *testing.T) {
	want := []Design{Baseline, Snoopy, FullDir, C3D, C3DFullDir, SharedDRAM}
	if got := Designs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Designs() = %v, want %v", got, want)
	}
	evaluated := []Design{Baseline, Snoopy, FullDir, C3D, C3DFullDir}
	if got := EvaluatedDesigns(); !reflect.DeepEqual(got, evaluated) {
		t.Fatalf("EvaluatedDesigns() = %v, want %v", got, evaluated)
	}
	for _, d := range want {
		if parsed, err := ParseDesign(string(d)); err != nil || parsed != d {
			t.Errorf("ParseDesign(%q) = %v, %v", d, parsed, err)
		}
	}
}

// TestDesignTableInvariants checks every entry of the design table is
// well-formed: a non-empty unique name, an engine factory, and directory
// traits only with a directory.
func TestDesignTableInvariants(t *testing.T) {
	seen := map[Design]bool{}
	for _, spec := range designs {
		if spec.Name == "" {
			t.Errorf("design table entry with an empty name: %+v", spec)
		}
		if seen[spec.Name] {
			t.Errorf("design %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		if spec.NewEngine == nil {
			t.Errorf("design %q is missing its engine factory", spec.Name)
		}
		if spec.Directory == noDirectory && spec.Dir != (core.DirTraits{}) {
			t.Errorf("design %q has directory traits but no directory", spec.Name)
		}
	}
}

func TestUnknownDesignIsRejectedEverywhere(t *testing.T) {
	const unknown = `machine: unknown design "warp-drive" (known: [baseline snoopy full-dir c3d c3d-full-dir shared])`
	if _, err := ParseDesign("warp-drive"); err == nil || err.Error() != unknown {
		t.Errorf("ParseDesign(warp-drive) error = %v, want %s", err, unknown)
	}
	cfg := DefaultConfig(4, "warp-drive")
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Errorf("Validate with unknown design = %v", err)
	}
	// The zero value is not a design either.
	if err := DefaultConfig(4, "").Validate(); err == nil {
		t.Error("empty design should not validate")
	}
	if Design("warp-drive").HasDRAMCache() || Design("").CleanDRAMCache() {
		t.Error("unknown designs must report no traits")
	}
}
