// Package trace defines the memory-access trace format that drives the
// simulator, mirroring the paper's Pin/Simics-derived traces (§V): a serial
// initialisation section (used by the FT1 placement policy and to warm
// structures) followed by one access stream per thread for the parallel
// region. Traces can be held in memory, generated synthetically
// (internal/workload), and serialised to a compact binary format.
package trace

import (
	"fmt"

	"c3d/internal/addr"
)

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Read is a load.
	Read Kind = iota
	// Write is a store.
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one memory access in a thread's instruction stream.
//
// Its fields are ordered widest first, which packs a record into 16 bytes
// rather than 24: records are held by the million in materialised traces
// and by the thousand in every prefetching reader's batches.
type Record struct {
	// Addr is the physical byte address accessed.
	Addr addr.Addr
	// Gap is the number of non-memory instructions executed since the
	// previous memory access of the same thread. The 1-IPC core model
	// charges one cycle per gap instruction.
	Gap uint32
	// Kind is Read or Write.
	Kind Kind
}

// Trace is a complete workload trace.
type Trace struct {
	// Name identifies the workload the trace was generated from.
	Name string
	// Init is the serial initialisation section, executed by thread 0 before
	// the parallel region. It is used for page placement under FT1 and for
	// cache warm-up; it is never part of the measured region.
	Init []Record
	// Parallel holds one access stream per thread for the parallel region.
	Parallel [][]Record
}

// Threads returns the number of parallel threads.
func (t *Trace) Threads() int { return len(t.Parallel) }

// Accesses returns the total number of parallel-region accesses across all
// threads.
//
//c3dlint:allow unused(record count the trace and workload tests compare streams against)
func (t *Trace) Accesses() int {
	n := 0
	for _, recs := range t.Parallel {
		n += len(recs)
	}
	return n
}

// InitAccesses returns the number of initialisation-section accesses.
//
//c3dlint:allow unused(init-section length the trace and workload tests compare streams against)
func (t *Trace) InitAccesses() int { return len(t.Init) }

// Stats summarises a trace.
type Stats struct {
	Name           string
	Threads        int
	InitAccesses   int
	Accesses       int
	Reads          uint64
	Writes         uint64
	FootprintPages int
	// InstructionEstimate counts memory accesses plus gap instructions in
	// the parallel region.
	InstructionEstimate uint64
}

// ReadFraction returns reads/(reads+writes) in the parallel region.
func (s Stats) ReadFraction() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.Reads) / float64(total)
}

// FootprintBytes returns the data footprint implied by the touched pages.
func (s Stats) FootprintBytes() uint64 {
	return uint64(s.FootprintPages) * addr.PageBytes
}

// ComputeStats scans the trace and returns its summary.
//
//c3dlint:allow unused(materialised reference TestComputeStatsSourceMatchesMaterialised checks the streaming scan against)
func (t *Trace) ComputeStats() Stats {
	s, err := ComputeStatsSource(t.Source())
	if err != nil {
		// Slice-backed readers never fail.
		panic(err)
	}
	return s
}

// Validate checks structural invariants: at least one thread, and every
// record's address within the given physical memory size (0 disables the
// bound check). It returns a descriptive error for the first violation.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (t *Trace) Validate(memBytes uint64) error {
	if len(t.Parallel) == 0 {
		return fmt.Errorf("trace %q: no parallel threads", t.Name)
	}
	check := func(section string, i int, r Record) error {
		if memBytes > 0 && uint64(r.Addr) >= memBytes {
			return fmt.Errorf("trace %q: %s record %d address %v outside physical memory (%d bytes)",
				t.Name, section, i, r.Addr, memBytes)
		}
		if r.Kind != Read && r.Kind != Write {
			return fmt.Errorf("trace %q: %s record %d has invalid kind %d", t.Name, section, i, r.Kind)
		}
		return nil
	}
	for i, r := range t.Init {
		if err := check("init", i, r); err != nil {
			return err
		}
	}
	for th, recs := range t.Parallel {
		for i, r := range recs {
			if err := check(fmt.Sprintf("thread %d", th), i, r); err != nil {
				return err
			}
		}
	}
	return nil
}
