package wspec

import (
	"fmt"
	"sync"

	"c3d/internal/workload"
)

// The preset registry remembers which workload-registry entries came from
// spec documents and keeps the original document bytes, so CLIs can list
// presets and ship a preset's exact bytes to a remote daemon.
var (
	presetMu    sync.RWMutex
	presetDocs  = map[string][]byte{}
	presetOrder []string
)

// RegisterPresets compiles a batch of spec documents — which may reference
// each other as bases — and registers every compiled workload plus its
// document bytes. The embedded preset library loads through here.
func RegisterPresets(raws [][]byte) error {
	docs := make([]*Doc, len(raws))
	for i, raw := range raws {
		d, err := Parse(raw)
		if err != nil {
			return err
		}
		docs[i] = d
	}
	compiled, err := CompileAll(docs)
	if err != nil {
		return err
	}
	for _, c := range compiled {
		if _, err := workload.Get(c.Name()); err == nil {
			return fmt.Errorf("wspec: workload %q is already registered", c.Name())
		}
	}
	presetMu.Lock()
	defer presetMu.Unlock()
	for i, c := range compiled {
		workload.Register(c.Spec())
		presetDocs[c.Name()] = append([]byte(nil), raws[i]...)
		presetOrder = append(presetOrder, c.Name())
	}
	return nil
}

// Presets returns the names of the registered spec documents in
// registration order.
func Presets() []string {
	presetMu.RLock()
	defer presetMu.RUnlock()
	out := make([]string, len(presetOrder))
	copy(out, presetOrder)
	return out
}

// PresetDoc returns the original document bytes a preset was registered
// from.
func PresetDoc(name string) ([]byte, bool) {
	presetMu.RLock()
	defer presetMu.RUnlock()
	raw, ok := presetDocs[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), raw...), true
}
