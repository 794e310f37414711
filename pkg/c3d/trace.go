package c3d

import (
	"context"
	"fmt"
	"io"
	"os"

	"c3d/internal/trace"
	"c3d/internal/workload"
	"c3d/internal/wspec"
)

// WorkloadInfo describes one catalog workload.
type WorkloadInfo struct {
	// Name is the workload name as used in the paper's figures.
	Name string `json:"name"`
	// Class is the suite the workload models ("parallel", "scale-out", ...).
	Class string `json:"class"`
	// SharedBytes is the unscaled size of the data shared by all threads.
	SharedBytes uint64 `json:"shared_bytes"`
	// DefaultThreads is the native thread count.
	DefaultThreads int `json:"default_threads"`
	// ReadFraction and CommFraction characterise the access mix.
	ReadFraction float64 `json:"read_fraction"`
	CommFraction float64 `json:"comm_fraction"`
	// DefaultPolicy is the best-performing placement policy from the
	// paper's profiling.
	DefaultPolicy Policy `json:"-"`
	// InSuite reports whether the workload is part of the paper's
	// nine-workload evaluation suite (the default experiment set).
	InSuite bool `json:"in_suite"`
}

// Workloads lists every catalog workload — the paper's suite, the extras
// (mcf), then the workload-spec presets — suite members first.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, name := range wspec.Names() {
		spec, err := wspec.Lookup(name)
		if err != nil {
			panic(err) // Names lists only names Lookup resolves
		}
		out = append(out, workloadInfoFor(spec))
	}
	return out
}

// ParseWorkload resolves a workload name against the catalog, mirroring
// ParseTopology: only catalog workloads parse, and the error lists the
// known names sorted. Workloads defined by a session's workload-spec
// document are per-session, not in the catalog — Simulate resolves those
// itself.
func ParseWorkload(s string) (WorkloadInfo, error) {
	spec, err := wspec.Lookup(s)
	if err != nil {
		return WorkloadInfo{}, fmt.Errorf("c3d: %w", err)
	}
	return workloadInfoFor(spec), nil
}

// workloadInfoFor is the one spec→info projection Workloads and
// ParseWorkload share.
func workloadInfoFor(spec workload.Spec) WorkloadInfo {
	suite := false
	for _, name := range workload.Names() {
		if name == spec.Name {
			suite = true
			break
		}
	}
	return WorkloadInfo{
		Name:           spec.Name,
		Class:          spec.Class.String(),
		SharedBytes:    spec.SharedBytes,
		DefaultThreads: spec.DefaultThreads,
		ReadFraction:   spec.ReadFraction,
		CommFraction:   spec.CommFraction,
		DefaultPolicy:  spec.PreferredPolicy,
		InSuite:        suite,
	}
}

// TraceSource builds a streaming generator source for a workload under the
// session (threads, scale, accesses, seed): records are produced on demand,
// so the source can drive paper-scale stream lengths at bounded memory.
func (s *Session) TraceSource(workloadName string) (TraceSource, error) {
	spec, err := s.resolveWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return workload.NewSource(spec, workload.Options{
		Threads:           s.p.Threads,
		Scale:             s.p.Scale,
		AccessesPerThread: s.p.Accesses,
		SeedOffset:        s.p.Seed,
	})
}

// TraceFile is an open on-disk trace: a TraceSource plus the file it reads
// from. Close it when done.
type TraceFile struct {
	TraceSource
	f *os.File
}

// Close releases the underlying file.
func (t *TraceFile) Close() error { return t.f.Close() }

// OpenTrace opens a binary trace written by TraceEncode (or cmd/c3dtrace).
// Chunked v2 files are streamed at bounded memory (one chunk per reader);
// older flat v1 files are decoded whole into memory.
func OpenTrace(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := trace.OpenSource(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &TraceFile{TraceSource: src, f: f}, nil
}

// TraceEncode writes the source to w in the chunked v2 binary format.
// Cancelling the context aborts the walk between records.
func TraceEncode(ctx context.Context, w io.Writer, src TraceSource) error {
	return trace.EncodeSource(w, withContext(ctx, src))
}

// ComputeTraceStats walks every stream of the source and summarises it.
// Cancelling the context aborts the walk between records.
func ComputeTraceStats(ctx context.Context, src TraceSource) (TraceStats, error) {
	return trace.ComputeStatsSource(withContext(ctx, src))
}

// withContext wraps a source so its readers observe ctx cancellation: the
// trace codec itself is context-free, and this adapter is how the SDK makes
// encode/stat walks over arbitrarily long streams abortable.
func withContext(ctx context.Context, src TraceSource) TraceSource {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	return &ctxSource{Source: src, ctx: ctx}
}

type ctxSource struct {
	trace.Source
	ctx context.Context
}

func (c *ctxSource) OpenInit() trace.RecordReader {
	return &ctxReader{RecordReader: c.Source.OpenInit(), ctx: c.ctx}
}

func (c *ctxSource) OpenThread(t int) trace.RecordReader {
	return &ctxReader{RecordReader: c.Source.OpenThread(t), ctx: c.ctx}
}

type ctxReader struct {
	trace.RecordReader
	ctx   context.Context
	steps int
	err   error
}

func (r *ctxReader) Next() (TraceRecord, bool) {
	if r.err != nil {
		return TraceRecord{}, false
	}
	// Check on the first record and every 4096 thereafter, so even short
	// streams observe cancellation promptly.
	if r.steps++; r.steps&4095 == 1 {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			return TraceRecord{}, false
		}
	}
	return r.RecordReader.Next()
}

func (r *ctxReader) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.RecordReader.Err()
}
