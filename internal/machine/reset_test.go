package machine

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"c3d/internal/workload"
)

// TestResetMatchesFreshMachine is the Machine.Reset contract: running a trace
// on a reset machine must produce results bit-identical to a freshly
// constructed machine's, for every design (each design exercises a different
// mix of directories, DRAM caches and predictors).
func TestResetMatchesFreshMachine(t *testing.T) {
	spec := workload.MustGet("streamcluster")
	tr := workload.MustGenerate(spec, workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 2000})
	for _, design := range Designs() {
		cfg := DefaultConfig(4, design)
		cfg.Scale = 512
		cfg.CoresPerSocket = 2
		if design == C3D {
			cfg.EnableBroadcastFilter = true
		}

		fresh := New(cfg)
		want, err := fresh.RunSource(context.Background(), tr.Source(), DefaultRunOptions())
		if err != nil {
			t.Fatalf("%v: fresh run: %v", design, err)
		}

		// Dirty a machine with a full run, reset it, and rerun.
		reused := New(cfg)
		if _, err := reused.RunSource(context.Background(), tr.Source(), DefaultRunOptions()); err != nil {
			t.Fatalf("%v: dirtying run: %v", design, err)
		}
		reused.Reset()
		got, err := reused.RunSource(context.Background(), tr.Source(), DefaultRunOptions())
		if err != nil {
			t.Fatalf("%v: reset run: %v", design, err)
		}

		if !reflect.DeepEqual(want, got) {
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			t.Errorf("%v: reset machine diverged from fresh machine:\n fresh: %s\n reset: %s", design, wj, gj)
		}
	}
}

// TestResetClearsState spot-checks that reset actually empties the stateful
// components rather than merely zeroing counters.
func TestResetClearsState(t *testing.T) {
	spec := workload.MustGet("canneal")
	tr := workload.MustGenerate(spec, workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 1000})
	cfg := DefaultConfig(4, C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	m := New(cfg)
	if _, err := m.RunSource(context.Background(), tr.Source(), DefaultRunOptions()); err != nil {
		t.Fatal(err)
	}
	m.Reset()

	if n := m.PageTable().Pages(); n != 0 {
		t.Errorf("page table still holds %d pages after Reset", n)
	}
	if n := m.Classifier().Pages(); n != 0 {
		t.Errorf("classifier still holds %d pages after Reset", n)
	}
	if c := m.Counters(); c.Loads != 0 || c.Stores != 0 || c.MemReads != 0 {
		t.Errorf("counters not cleared by Reset: %+v", c)
	}
	if fs := m.Fabric().Stats(); fs.Messages != 0 {
		t.Errorf("fabric stats not cleared by Reset: %+v", fs)
	}
	for _, s := range m.Sockets() {
		if n := s.LLC().ValidLines(); n != 0 {
			t.Errorf("socket %d LLC still holds %d lines after Reset", s.ID(), n)
		}
		if s.DRAMCache() != nil && s.DRAMCache().TagStats().Accesses() != 0 {
			t.Errorf("socket %d DRAM cache stats not cleared", s.ID())
		}
		if st := s.Memory().Stats(); st.Reads != 0 || st.Writes != 0 {
			t.Errorf("socket %d memory stats not cleared: %+v", s.ID(), st)
		}
		for _, c := range s.Cores() {
			if c.Now() != 0 || c.PendingStores() != 0 {
				t.Errorf("core %d not rewound by Reset", c.ID())
			}
		}
	}
}
