package c3d

import (
	"context"
	"reflect"
	"testing"

	"c3d/internal/trace"
	"c3d/internal/workload"
)

// countingSource wraps a simulation's source, forwarding its page span (or
// hiding it) and counting every record the runner reads from it.
type countingSource struct {
	trace.Source
	hide bool
	read *int
}

func (c countingSource) PageSpan() uint64 {
	if c.hide {
		return 0
	}
	return trace.PageSpan(c.Source)
}

func (c countingSource) OpenInit() trace.RecordReader {
	return &countingReader{RecordReader: c.Source.OpenInit(), read: c.read}
}

func (c countingSource) OpenThread(t int) trace.RecordReader {
	return &countingReader{RecordReader: c.Source.OpenThread(t), read: c.read}
}

type countingReader struct {
	trace.RecordReader
	read *int
}

func (r *countingReader) Next() (trace.Record, bool) {
	rec, ok := r.RecordReader.Next()
	if ok {
		*r.read++
	}
	return rec, ok
}

// TestPlacementStopsEarlyThroughSimulate shows the page span reaching the
// runner through Session.Simulate for a built-in workload and for both
// composite presets (phased and multi-tenant, whose sources wrap
// generators). With the span, the placement pre-pass ends inside the init
// section, so the run reads fewer records than init plus two passes over
// the threads; with the span hidden, it reads exactly that many. The
// results are identical either way.
func TestPlacementStopsEarlyThroughSimulate(t *testing.T) {
	ctx := context.Background()
	t.Cleanup(func() { newSource = workload.NewSource })
	sess := session(t, Params{Accesses: 4000, Scale: 512, Policy: "INT"})
	for _, name := range []string{"facesim", "phase-shift", "multitenant-mix"} {
		// run simulates name and returns the result, the records read, and
		// the init and per-pass thread record counts of its source.
		run := func(hide bool) (res *SimulateResult, read, init, threads int) {
			newSource = func(s workload.Spec, o workload.Options) (trace.Source, error) {
				src, err := workload.NewSource(s, o)
				if err != nil {
					return nil, err
				}
				init = src.InitLen()
				for th := range src.Threads() {
					threads += src.ThreadLen(th)
				}
				return countingSource{Source: src, hide: hide, read: &read}, nil
			}
			res, err := sess.Simulate(ctx, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, read, init, threads
		}
		early, read, init, threads := run(false)
		ref, refRead, _, _ := run(true)
		full := init + 2*threads
		if refRead != full {
			t.Errorf("%s without a span: read %d records, want the full pass's %d", name, refRead, full)
		}
		if read >= full || read-threads > init {
			t.Errorf("%s with a span: read %d records, want the execution's %d plus at most the %d-record init section",
				name, read, threads, init)
		}
		if !reflect.DeepEqual(early, ref) {
			t.Errorf("%s: result with the span differs from the full pass", name)
		}
		t.Logf("%s: %d of %d records read", name, read, full)
	}
}
