package trace

import (
	"bufio"
	"fmt"
	"io"
)

// chunkMeta locates one validated chunk payload in the file.
type chunkMeta struct {
	off     int64
	count   int
	byteLen int
}

// fileSource is a Source backed by a chunked (version 2) trace file. Opening
// it scans the chunk headers once — validating every field and computing the
// per-section record counts — after which each section can be replayed any
// number of times through independent readers that hold at most one chunk.
type fileSource struct {
	ra      io.ReaderAt
	name    string
	threads int
	lens    []int         // records per section (0 = init, t+1 = thread t)
	chunks  [][]chunkMeta // chunk index per section, in file order
}

// posReader tracks the byte offset consumed from a buffered reader, so the
// index scan knows every chunk payload's file offset without a second pass.
type posReader struct {
	br  *bufio.Reader
	pos int64
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.pos++
	}
	return b, err
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.br.Read(b)
	p.pos += int64(n)
	return n, err
}

func (p *posReader) discard(n int) error {
	d, err := p.br.Discard(n)
	p.pos += int64(d)
	return err
}

// OpenSource opens a trace file of the given size, in either binary format,
// as a Source. A chunked (version 2) file is streamed: the whole file is
// validated structurally up front — chunk by chunk, against the format caps
// and the file size — but payloads are only decoded when a reader consumes
// them. A flat (version 1) file has no chunk framing to stream from, so it is
// decoded whole into memory.
func OpenSource(ra io.ReaderAt, size int64) (Source, error) {
	pr := &posReader{br: bufio.NewReaderSize(io.NewSectionReader(ra, 0, size), 64<<10)}
	name, version, err := readHeader(pr)
	if err != nil {
		return nil, err
	}
	switch version {
	case formatVersion1:
		t, err := Decode(io.NewSectionReader(ra, 0, size))
		if err != nil {
			return nil, err
		}
		return t.Source(), nil
	case formatVersion2:
	default:
		return nil, fmt.Errorf("trace: unsupported format version %d", version)
	}
	threads, err := readThreadCount(pr)
	if err != nil {
		return nil, err
	}
	want, err := readSectionLens(pr, threads)
	if err != nil {
		return nil, err
	}
	f := &fileSource{
		ra:      ra,
		name:    name,
		threads: int(threads),
		lens:    make([]int, threads+1),
		chunks:  make([][]chunkMeta, threads+1),
	}
	// The walk (and with it every acceptance rule) is shared with the
	// sequential decoder; this callback only indexes payload locations
	// instead of decoding them.
	err = walkChunks(pr, threads, want, func(chunk, section, count, byteLen int) error {
		if pr.pos+int64(byteLen) > size {
			return fmt.Errorf("trace: chunk %d: %d-byte payload at offset %d overruns the %d-byte file",
				chunk, byteLen, pr.pos, size)
		}
		f.chunks[section] = append(f.chunks[section], chunkMeta{off: pr.pos, count: count, byteLen: byteLen})
		f.lens[section] += count
		if err := pr.discard(byteLen); err != nil {
			return fmt.Errorf("trace: chunk %d: skipping payload: %w", chunk, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Name returns the workload name recorded in the file.
func (f *fileSource) Name() string { return f.name }

// Threads returns the number of parallel threads in the file.
func (f *fileSource) Threads() int { return f.threads }

// InitLen returns the number of init-section records.
func (f *fileSource) InitLen() int { return f.lens[0] }

// ThreadLen returns the number of records in thread t's parallel stream.
func (f *fileSource) ThreadLen(t int) int { return f.lens[t+1] }

// OpenInit returns a fresh reader over the init section.
func (f *fileSource) OpenInit() RecordReader { return &fileReader{f: f, chunks: f.chunks[0]} }

// OpenThread returns a fresh reader over thread t's parallel stream.
func (f *fileSource) OpenThread(t int) RecordReader {
	return &fileReader{f: f, chunks: f.chunks[t+1]}
}

// fileReader streams one section's records, holding one decoded chunk at a
// time. The payload and record buffers are reused across chunks, so a
// reader's resident memory is bounded by the chunk caps however long the
// section is.
type fileReader struct {
	f       *fileSource
	chunks  []chunkMeta
	ci      int // next chunk to load
	buf     []Record
	bi      int
	payload []byte
	prev    uint64
	err     error
}

func (r *fileReader) Next() (Record, bool) {
	for r.bi >= len(r.buf) {
		if r.err != nil || r.ci >= len(r.chunks) {
			return Record{}, false
		}
		c := r.chunks[r.ci]
		r.ci++
		if cap(r.payload) < c.byteLen {
			r.payload = make([]byte, c.byteLen)
		}
		p := r.payload[:c.byteLen]
		if _, err := r.f.ra.ReadAt(p, c.off); err != nil {
			r.err = fmt.Errorf("trace: reading chunk at offset %d: %w", c.off, err)
			return Record{}, false
		}
		r.buf, r.prev, r.err = decodeChunk(r.buf[:0], p, c.count, r.prev)
		if r.err != nil {
			r.err = fmt.Errorf("trace: chunk at offset %d: %w", c.off, r.err)
			return Record{}, false
		}
		r.bi = 0
	}
	rec := r.buf[r.bi]
	r.bi++
	return rec, true
}

func (r *fileReader) Err() error { return r.err }
