package workload_test

import (
	"fmt"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/trace"
	"c3d/internal/workload"
	"c3d/internal/wspec"
)

// TestAddressesWithinLayout checks the page-span contract the placement
// pre-pass relies on, for every workload in the catalog (built-ins and
// presets) at three shapes: the source reports a span, every record of the
// init section and of every thread addresses a page below it, and a plain
// generator's span is exactly its layout's page count.
func TestAddressesWithinLayout(t *testing.T) {
	shapes := []workload.Options{
		{Threads: 4, Scale: workload.DefaultScale, AccessesPerThread: 3000},
		{Threads: 8, Scale: 512, AccessesPerThread: 2000},
		{Threads: 32, Scale: workload.DefaultScale, AccessesPerThread: 300},
	}
	for _, name := range wspec.Names() {
		spec, err := wspec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range shapes {
			what := fmt.Sprintf("%s at %d threads, scale %d", name, opts.Threads, opts.Scale)
			src, err := workload.NewSource(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			span := trace.PageSpan(src)
			if span == 0 {
				t.Fatalf("%s: no page span", what)
			}
			if spec.Source == nil {
				if want := workload.BuildLayout(spec, opts).TotalBytes() / addr.PageBytes; span != want {
					t.Fatalf("%s: span %d pages, want the layout's %d", what, span, want)
				}
			}
			if err := checkSpan(src, span); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// checkSpan reads every section of src and reports the first record whose
// page is not below span.
func checkSpan(src trace.Source, span uint64) error {
	check := func(section string, rr trace.RecordReader) error {
		for i := 0; ; i++ {
			rec, ok := rr.Next()
			if !ok {
				return rr.Err()
			}
			if p := addr.PageOf(rec.Addr); uint64(p) >= span {
				return fmt.Errorf("%s record %d addresses page %d, outside the %d-page span", section, i, p, span)
			}
		}
	}
	if err := check("init", src.OpenInit()); err != nil {
		return err
	}
	for th := range src.Threads() {
		if err := check(fmt.Sprintf("thread %d", th), src.OpenThread(th)); err != nil {
			return err
		}
	}
	return nil
}
