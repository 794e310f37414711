package machine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/sample"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// TestWarmedStateMatchesGolden pins the architectural state a sampled run
// leaves behind, for every design on two workloads: each L1, LLC and DRAM
// cache as (block, state, dirty) per set in LRU order, every classified
// page's class and owner, and every page's home. Functional warming writes
// all of it, so any change to how fast-forward warms moves a digest even when
// the sampled RunResult happens not to. Raw LRU stamps are left out: only
// their order within a set reaches replacement.
//
// Regenerate after a deliberate warming change with:
//
//	go test ./internal/machine -run TestWarmedStateMatchesGolden -update
func TestWarmedStateMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("warmed-state runs skipped in -short mode")
	}
	var got strings.Builder
	for _, wl := range []string{"streamcluster", "facesim"} {
		tr := workload.MustGenerate(workload.MustGet(wl),
			workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 4000})
		for _, design := range Designs() {
			cfg := DefaultConfig(4, design)
			cfg.Scale = 512
			cfg.CoresPerSocket = 2
			m := New(cfg)
			opts := sampledOpts(sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1})
			if _, err := m.RunSource(context.Background(), tr.Source(), opts); err != nil {
				t.Fatalf("%s/%s: %v", wl, design, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", wl, design, warmedStateDigest(m, tr))
		}
	}

	path := filepath.Join("testdata", "warmstate-golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := goldenLines(want)
	for name, line := range goldenLines([]byte(got.String())) {
		if w, ok := wantLines[name]; !ok {
			t.Errorf("%s: no golden line", name)
		} else if w != line {
			t.Errorf("%s: warmed state drifted: digest %s, golden %s", name, line, w)
		}
		delete(wantLines, name)
	}
	for name := range wantLines {
		t.Errorf("%s: golden line no longer produced", name)
	}
}

// warmedStateDigest hashes the machine's caches, classifier and page table.
// The classifier and page table are read through their per-page queries over
// every page the trace names, with their page counts guarding against extra
// entries.
func warmedStateDigest(m *Machine, tr *trace.Trace) []byte {
	h := sha256.New()
	for _, s := range m.sockets {
		for i, l1 := range s.l1s {
			hashCache(h, fmt.Sprintf("s%d.l1.%d", s.id, i), l1)
		}
		hashCache(h, fmt.Sprintf("s%d.llc", s.id), s.llc)
		if s.dramCache != nil {
			fmt.Fprintf(h, "s%d.dc\n", s.id)
			s.dramCache.ForEach(func(l cache.Line) {
				fmt.Fprintf(h, "%d %d %v\n", l.Block, l.State, l.Dirty)
			})
		}
	}

	seen := make(map[addr.Page]bool)
	for _, recs := range append([][]trace.Record{tr.Init}, tr.Parallel...) {
		for _, r := range recs {
			seen[addr.PageOf(r.Addr)] = true
		}
	}
	pages := make([]addr.Page, 0, len(seen))
	for p := range seen {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	fmt.Fprintf(h, "pages %d classified %d placed %d\n",
		len(pages), m.classifier.Pages(), m.pageTable.Pages())
	for _, p := range pages {
		owner := -1
		for t := range tr.Threads() {
			if m.classifier.IsPrivateTo(p, t) {
				owner = t
			}
		}
		fmt.Fprintf(h, "%d %v %d %d\n", p, m.classifier.Classify(p), owner, m.pageTable.Home(p))
	}
	return h.Sum(nil)
}

// hashCache writes every set's valid lines, least recently used first.
func hashCache(h hash.Hash, name string, c *cache.Cache) {
	fmt.Fprintln(h, name)
	for s := range c.Sets() {
		for _, l := range c.LRUOrder(s) {
			fmt.Fprintf(h, "%d: %d %d %v\n", s, l.Block, l.State, l.Dirty)
		}
	}
}
