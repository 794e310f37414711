package machine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/numa"
	"c3d/internal/trace"
	"c3d/internal/workload"
	"c3d/internal/wspec"
)

// samePlacement requires two page tables to hold the same page set with the
// same homes and statistics. Home places an unplaced page by the interleave
// fallback and counts it, so a page placed in one table only shows up as a
// Stats difference after the probe.
func samePlacement(t *testing.T, what string, got, want *numa.PageTable, span uint64) {
	t.Helper()
	if got.Pages() != want.Pages() {
		t.Fatalf("%s: %d pages placed, want %d", what, got.Pages(), want.Pages())
	}
	for p := addr.Page(0); uint64(p) < span; p++ {
		if g, w := got.Home(p), want.Home(p); g != w {
			t.Fatalf("%s: page %d homed on socket %d, want %d", what, p, g, w)
		}
	}
	if g, w := got.Stats(), want.Stats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: page-table stats %+v, want %+v", what, g, w)
	}
}

// The early-stopping placement pre-pass against the full pass it replaces:
// for every workload in the catalog (built-ins and presets), every placement
// policy and two socket counts, a source reporting its page span and the
// same source with the span hidden must leave identical per-page homes and
// numa.Stats after the pre-pass, and identical RunResults and page tables
// after a whole run on fresh machines.
func TestPlacementEarlyStopMatchesFullPass(t *testing.T) {
	ctx := context.Background()
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 1500}
	stopped := 0
	cases := 0
	for _, name := range wspec.Names() {
		spec, err := wspec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewSource(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		span := trace.PageSpan(src)
		if span == 0 {
			t.Fatalf("%s: source reports no page span", name)
		}
		full := trace.WithPageSpan(src, 0)
		for _, policy := range numa.Policies() {
			for _, sockets := range []int{2, 4} {
				what := fmt.Sprintf("%s/%v/%d sockets", name, policy, sockets)
				cfg := DefaultConfig(sockets, C3D)
				cfg.Scale = 512
				cfg.CoresPerSocket = opts.Threads / sockets
				cfg.MemPolicy = policy

				early, ref := New(cfg), New(cfg)
				if err := early.placePages(ctx, src, span); err != nil {
					t.Fatal(err)
				}
				if err := ref.placePages(ctx, full, 0); err != nil {
					t.Fatal(err)
				}
				samePlacement(t, what+" pre-pass", early.PageTable(), ref.PageTable(), span)
				cases++
				if uint64(early.PageTable().Pages()) == span {
					stopped++
				}

				early, ref = New(cfg), New(cfg)
				got, err := early.RunSource(ctx, src, DefaultRunOptions())
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.RunSource(ctx, full, DefaultRunOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: early-stop run differs from full pass:\n got %+v\nwant %+v", what, got, want)
				}
				samePlacement(t, what+" run", early.PageTable(), ref.PageTable(), span)
			}
		}
	}
	// The comparison only means something if the early stop fired; under
	// INT and FT1 the init section alone places every page.
	if stopped < cases/2 {
		t.Fatalf("pre-pass placed the whole span in %d of %d cases, want at least half", stopped, cases)
	}
	t.Logf("pre-pass placed the whole span in %d of %d cases", stopped, cases)
}
