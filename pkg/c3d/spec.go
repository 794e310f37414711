package c3d

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"c3d/internal/wspec"
)

// WorkloadSpecPresets lists the embedded workload-spec presets in file-name
// order. Each is also a catalog workload, runnable by name.
func WorkloadSpecPresets() []string { return wspec.Presets() }

// WorkloadSpecPreset returns the embedded preset's original document bytes
// — the exact bytes to put in Params.Spec or ship to a remote daemon.
func WorkloadSpecPreset(name string) ([]byte, error) {
	doc, ok := wspec.PresetDoc(name)
	if !ok {
		known := wspec.Presets()
		sort.Strings(known)
		return nil, fmt.Errorf("c3d: unknown spec preset %q (known: %v)", name, known)
	}
	return doc, nil
}

// ReadWorkloadSpec resolves a CLI-style spec argument: "preset:<name>"
// returns the embedded preset's bytes, anything else is read as a file
// path. The CLIs' -spec flags all route through here into Params.Spec.
func ReadWorkloadSpec(arg string) ([]byte, error) {
	if name, ok := strings.CutPrefix(arg, "preset:"); ok {
		return WorkloadSpecPreset(name)
	}
	doc, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("c3d: reading workload spec: %w", err)
	}
	return doc, nil
}

// OpenTextTrace streams an external text-format memory trace (see the
// internal/wspec format reference: `<init|thread> <r|w> <addr> [gap]` lines)
// as a TraceSource without materialising it. Pipe it through TraceEncode to
// ingest the trace into the chunked v2 binary format, or WriteTextTrace to
// go the other way.
func OpenTextTrace(path string) (TraceSource, error) {
	return wspec.OpenText(path)
}

// WriteTextTrace exports any trace source in the text format OpenTextTrace
// reads, making the round trip lossless.
func WriteTextTrace(ctx context.Context, w io.Writer, src TraceSource) error {
	return wspec.WriteText(w, withContext(ctx, src))
}
