package trace

import (
	"fmt"

	"c3d/internal/addr"
)

// RecordReader streams one section of a trace in order. Next returns the next
// record and true, or a zero record and false when the section is exhausted or
// a read error occurred; Err distinguishes the two after Next returns false.
type RecordReader interface {
	Next() (Record, bool)
	Err() error
}

// Source is a streaming view of a trace: the same sections a materialised
// Trace holds, exposed as iterators instead of slices, so consumers (the
// machine runner, the chunked encoder, streaming statistics) never hold more
// than a bounded window of the access streams in memory regardless of how
// long they are.
//
// Opening a section returns a fresh reader positioned at the section's first
// record; a Source therefore supports being replayed any number of times and
// having several sections read at once. A reader is used by one goroutine at
// a time, but distinct readers may be read from different goroutines
// concurrently: the runner's page-placement pre-pass interleaves every
// thread on one goroutine, and its prefetching producers (Prefetch) read
// each thread on a goroutine of its own. Every Source in this module keeps
// its per-stream state in the reader and shares only immutable data: a
// binary trace file shares an io.ReaderAt, whose ReadAt may be called in
// parallel, and a text trace opens the file afresh for every reader.
//
// Lengths are known up front — generators know their configured stream
// length and the file format indexes its chunks — which is what lets the
// runner size its warm-up phase without materialising anything.
//
// A source may also implement PageSpanner to bound its address space; the
// machine runner uses the bound to end its page-placement pre-pass early and
// to size the page classifier's dense index.
type Source interface {
	// Name identifies the workload the trace was generated from.
	Name() string
	// Threads returns the number of parallel threads.
	Threads() int
	// InitLen returns the number of records in the serial init section.
	InitLen() int
	// ThreadLen returns the number of records in thread t's parallel stream.
	ThreadLen(t int) int
	// OpenInit returns a fresh reader over the init section.
	OpenInit() RecordReader
	// OpenThread returns a fresh reader over thread t's parallel stream.
	OpenThread(t int) RecordReader
}

// PageSpanner is the optional interface of a Source that knows its address
// space: PageSpan returns n such that every record in every section
// addresses a page below n. Zero means the source declares no bound. A
// source that reports a span must honour it — consumers skip work on the
// strength of the promise.
type PageSpanner interface {
	PageSpan() uint64
}

// PageSpan returns src's page span, or 0 when src declares none.
func PageSpan(src Source) uint64 {
	if s, ok := src.(PageSpanner); ok {
		return s.PageSpan()
	}
	return 0
}

// WithPageSpan returns src reporting a page span of n instead of its own; n
// of 0 hides any span src has. It is how a materialised copy of a generated
// trace keeps its generator's bound.
func WithPageSpan(src Source, n uint64) Source {
	return spanSource{Source: src, span: n}
}

type spanSource struct {
	Source
	span uint64
}

func (s spanSource) PageSpan() uint64 { return s.span }

// sliceReader is a RecordReader over an in-memory record slice.
type sliceReader struct {
	recs []Record
	i    int
}

func (r *sliceReader) Next() (Record, bool) {
	if r.i >= len(r.recs) {
		return Record{}, false
	}
	rec := r.recs[r.i]
	r.i++
	return rec, true
}

func (r *sliceReader) Err() error { return nil }

// sliceSource adapts a materialised Trace to the Source interface.
type sliceSource struct {
	t *Trace
}

func (s *sliceSource) Name() string           { return s.t.Name }
func (s *sliceSource) Threads() int           { return len(s.t.Parallel) }
func (s *sliceSource) InitLen() int           { return len(s.t.Init) }
func (s *sliceSource) ThreadLen(t int) int    { return len(s.t.Parallel[t]) }
func (s *sliceSource) OpenInit() RecordReader { return &sliceReader{recs: s.t.Init} }
func (s *sliceSource) OpenThread(t int) RecordReader {
	return &sliceReader{recs: s.t.Parallel[t]}
}

// Source returns a streaming view of the materialised trace. It is the thin
// adapter that lets slice-backed traces flow through the streaming pipeline
// unchanged.
func (t *Trace) Source() Source { return &sliceSource{t: t} }

// maxMaterializePrealloc caps the slice capacity Materialize reserves up
// front from a source's length hint, so a source reporting an absurd length
// cannot trigger a huge allocation before a single record has been read.
const maxMaterializePrealloc = 1 << 20

// Materialize drains a source into an in-memory Trace. It is the inverse
// adapter to (*Trace).Source and the compatibility path for consumers that
// still need random access to the record slices.
func Materialize(src Source) (*Trace, error) {
	t := &Trace{Name: src.Name()}
	// A nil Parallel for zero threads keeps materialised traces comparable
	// with decoded and hand-built ones.
	if n := src.Threads(); n > 0 {
		t.Parallel = make([][]Record, n)
	}
	var err error
	if t.Init, err = collect(src.OpenInit(), src.InitLen()); err != nil {
		return nil, fmt.Errorf("trace %q: materialising init section: %w", t.Name, err)
	}
	for th := range t.Parallel {
		if t.Parallel[th], err = collect(src.OpenThread(th), src.ThreadLen(th)); err != nil {
			return nil, fmt.Errorf("trace %q: materialising thread %d: %w", t.Name, th, err)
		}
	}
	return t, nil
}

// collect drains one reader into a slice. The length hint only sizes the
// initial allocation (bounded); the reader decides the actual length. Empty
// sections come back as nil so materialised traces compare equal to
// hand-built ones.
func collect(rr RecordReader, sizeHint int) ([]Record, error) {
	if sizeHint > maxMaterializePrealloc {
		sizeHint = maxMaterializePrealloc
	}
	var recs []Record
	if sizeHint > 0 {
		recs = make([]Record, 0, sizeHint)
	}
	for {
		rec, ok := rr.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	return recs, nil
}

// ComputeStatsSource scans a streaming trace and returns its summary without
// materialising it. Memory is bounded by the page footprint (for the distinct
// page count), never by the stream length.
func ComputeStatsSource(src Source) (Stats, error) {
	s := Stats{Name: src.Name(), Threads: src.Threads()}
	pages := make(map[addr.Page]struct{})
	rr := src.OpenInit()
	for {
		rec, ok := rr.Next()
		if !ok {
			break
		}
		pages[addr.PageOf(rec.Addr)] = struct{}{}
		s.InitAccesses++
	}
	if err := rr.Err(); err != nil {
		return Stats{}, fmt.Errorf("trace %q: scanning init section: %w", s.Name, err)
	}
	for th := 0; th < src.Threads(); th++ {
		rr := src.OpenThread(th)
		for {
			rec, ok := rr.Next()
			if !ok {
				break
			}
			pages[addr.PageOf(rec.Addr)] = struct{}{}
			s.Accesses++
			s.InstructionEstimate += uint64(rec.Gap) + 1
			if rec.Kind == Read {
				s.Reads++
			} else {
				s.Writes++
			}
		}
		if err := rr.Err(); err != nil {
			return Stats{}, fmt.Errorf("trace %q: scanning thread %d: %w", s.Name, th, err)
		}
	}
	s.FootprintPages = len(pages)
	return s, nil
}
