package wspec

import (
	"embed"
	"fmt"
	"sort"

	"c3d/internal/workload"
)

// presetFiles is the preset library: one spec document per file.
//
//go:embed presets/*.json
var presetFiles embed.FS

// preset is one compiled preset and the document bytes it compiled from.
type preset struct {
	*Compiled
	raw []byte
}

// presets is the preset library, compiled once in file-name order. Presets
// resolve their bases against the built-in workloads and each other only.
var presets = compilePresets()

// compilePresets compiles the embedded documents as one batch. The library
// ships with the binary, so a document that fails to compile, or a preset
// that takes a built-in workload's name, panics at start-up.
func compilePresets() []preset {
	entries, err := presetFiles.ReadDir("presets")
	if err != nil {
		panic("wspec: presets: " + err.Error())
	}
	raws := make([][]byte, len(entries))
	docs := make([]*Doc, len(entries))
	for i, e := range entries {
		if raws[i], err = presetFiles.ReadFile("presets/" + e.Name()); err != nil {
			panic("wspec: presets: " + err.Error())
		}
		if docs[i], err = Parse(raws[i]); err != nil {
			panic(fmt.Sprintf("wspec: preset %s: %v", e.Name(), err))
		}
	}
	compiled, err := compileAll(docs, workload.Get)
	if err != nil {
		panic("wspec: presets: " + err.Error())
	}
	out := make([]preset, len(compiled))
	for i, c := range compiled {
		if _, err := workload.Get(c.Name()); err == nil {
			panic(fmt.Sprintf("wspec: preset %q takes a built-in workload's name", c.Name()))
		}
		out[i] = preset{c, raws[i]}
	}
	return out
}

// Lookup resolves a workload name against the catalog: the built-in
// workloads first, then the presets.
func Lookup(name string) (workload.Spec, error) {
	if s, err := workload.Get(name); err == nil {
		return s, nil
	}
	for _, p := range presets {
		if p.Name() == name {
			return p.Spec(), nil
		}
	}
	known := Names()
	sort.Strings(known)
	return workload.Spec{}, fmt.Errorf("workload: unknown workload %q (known: %v)", name, known)
}

// Names lists every catalog workload: the built-ins in table order, then
// the presets in file-name order.
func Names() []string {
	return append(workload.AllNames(), Presets()...)
}

// Presets returns the preset names in file-name order.
func Presets() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name()
	}
	return out
}

// PresetDoc returns the document bytes a preset compiled from.
func PresetDoc(name string) ([]byte, bool) {
	for _, p := range presets {
		if p.Name() == name {
			return append([]byte(nil), p.raw...), true
		}
	}
	return nil, false
}
