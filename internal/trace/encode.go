package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"c3d/internal/addr"
)

// Binary trace formats
//
// EncodeSource writes only version 2. Version 1 is read-only: Scan, Decode
// and OpenSource still accept it, and its golden fixture pins the reader.
//
// Version 1 (flat, materialised):
//
//	magic   [4]byte  "C3DT"
//	version uint8    (1)
//	name    uvarint length + bytes
//	init    uvarint count + records
//	threads uvarint count
//	  per thread: uvarint count + records
//
// Version 2 (chunked, streaming):
//
//	magic   [4]byte  "C3DT"
//	version uint8    (2)
//	name    uvarint length + bytes
//	threads uvarint count
//	lens    (threads+1) uvarints: total records in the init section, then in
//	        each thread's parallel stream
//	chunks until EOF, each:
//	  section uvarint  (0 = init section, t+1 = parallel thread t)
//	  count   uvarint  (records in the chunk, 1..maxChunkRecords)
//	  byteLen uvarint  (payload length in bytes, used to skip foreign chunks)
//	  payload          (count records)
//
// The per-section totals in the header are what make truncation detectable:
// chunks are EOF-terminated, so without them a file cut exactly at a chunk
// boundary would silently decode as a shorter valid trace. Decoders verify
// that the accumulated chunk counts match the declared totals exactly.
//
// Each record is encoded as:
//
//	kindAndGap uvarint  (gap<<1 | kind)
//	addrDelta  varint   (zig-zag delta from the previous address in the same
//	                     section, block-aligned deltas compress well; the
//	                     delta chain runs across chunk boundaries within a
//	                     section)
//
// Both formats are self-contained and endian-independent; they exist so
// traces can be generated once (cmd/c3dtrace) and replayed by the simulator
// and the benchmarks without regeneration cost. The chunked v2 layout is what
// allows replay at bounded memory: a reader holds one chunk per open section,
// never a whole access stream, and every count and length field is validated
// against the caps below before a single byte is allocated for it — a corrupt
// or truncated file produces a descriptive error, not a multi-GB allocation.

var magic = [4]byte{'C', '3', 'D', 'T'}

const (
	formatVersion1 = 1
	formatVersion2 = 2

	// MaxNameLen bounds the workload-name field of a trace file. Real names
	// are tens of bytes; anything larger is a corrupt or hostile header.
	MaxNameLen = 4096
	// MaxThreads bounds the thread count of a trace file.
	MaxThreads = 1 << 16

	// chunkRecords is the number of records per chunk written by
	// EncodeSource. 4096 records keep a chunk in the tens of kilobytes while
	// amortising the 3-varint chunk header to well under a bit per record.
	chunkRecords = 4096
	// maxChunkRecords bounds the per-chunk record count accepted by readers;
	// writers may use any chunking up to this.
	maxChunkRecords = 1 << 16
	// maxChunkBytes bounds a chunk payload (a record encodes to at most
	// 2*MaxVarintLen64 bytes).
	maxChunkBytes = maxChunkRecords * 2 * binary.MaxVarintLen64
)

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck // bufio.Writer errors surface at Flush
}

// EncodeSource serialises a streaming trace to w in the chunked version-2
// format. Memory is bounded by one chunk regardless of stream length, so a
// generator source can be encoded straight to disk without ever holding the
// trace.
func EncodeSource(w io.Writer, src Source) error {
	name := src.Name()
	if len(name) > MaxNameLen {
		return fmt.Errorf("trace: name length %d exceeds %d", len(name), MaxNameLen)
	}
	threads := src.Threads()
	if threads < 0 || threads > MaxThreads {
		return fmt.Errorf("trace: thread count %d outside [0,%d]", threads, MaxThreads)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(formatVersion2); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(name)))
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	writeUvarint(bw, uint64(threads))
	writeUvarint(bw, uint64(src.InitLen()))
	for t := 0; t < threads; t++ {
		writeUvarint(bw, uint64(src.ThreadLen(t)))
	}
	enc := &chunkEncoder{bw: bw}
	written, err := enc.section(0, src.OpenInit())
	if err != nil {
		return fmt.Errorf("trace: encoding init section: %w", err)
	}
	if written != src.InitLen() {
		return fmt.Errorf("trace: init reader yielded %d records, source declared %d", written, src.InitLen())
	}
	for t := 0; t < threads; t++ {
		written, err := enc.section(t+1, src.OpenThread(t))
		if err != nil {
			return fmt.Errorf("trace: encoding thread %d: %w", t, err)
		}
		if written != src.ThreadLen(t) {
			return fmt.Errorf("trace: thread %d reader yielded %d records, source declared %d",
				t, written, src.ThreadLen(t))
		}
	}
	return bw.Flush()
}

// chunkEncoder writes chunked sections, reusing its header and payload
// buffers across chunks and sections so encoding allocates O(1) regardless of
// stream length.
type chunkEncoder struct {
	bw      *bufio.Writer
	hdr     []byte
	payload []byte
}

// section drains one reader into a run of chunks tagged with the section id
// and returns the number of records written.
func (e *chunkEncoder) section(section int, rr RecordReader) (int, error) {
	prev := uint64(0)
	total := 0
	count := 0
	buf := e.payload[:0]
	flush := func() {
		if count == 0 {
			return
		}
		e.hdr = binary.AppendUvarint(e.hdr[:0], uint64(section))
		e.hdr = binary.AppendUvarint(e.hdr, uint64(count))
		e.hdr = binary.AppendUvarint(e.hdr, uint64(len(buf)))
		e.bw.Write(e.hdr) //nolint:errcheck // bufio.Writer errors surface at Flush
		e.bw.Write(buf)   //nolint:errcheck
		buf = buf[:0]
		count = 0
	}
	for {
		rec, ok := rr.Next()
		if !ok {
			break
		}
		buf = binary.AppendUvarint(buf, uint64(rec.Gap)<<1|uint64(rec.Kind))
		buf = binary.AppendVarint(buf, int64(uint64(rec.Addr))-int64(prev))
		prev = uint64(rec.Addr)
		count++
		total++
		if count == chunkRecords {
			flush()
		}
	}
	flush()
	e.payload = buf[:0]
	return total, rr.Err()
}

// decodeChunk appends count records decoded from payload to dst. prev is the
// running address of the section's delta chain; the updated value is
// returned. The payload must contain exactly count records.
func decodeChunk(dst []Record, payload []byte, count int, prev uint64) ([]Record, uint64, error) {
	off := 0
	for i := 0; i < count; i++ {
		kindAndGap, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return dst, prev, fmt.Errorf("record %d/%d: bad kind/gap varint", i, count)
		}
		off += n
		delta, n := binary.Varint(payload[off:])
		if n <= 0 {
			return dst, prev, fmt.Errorf("record %d/%d: bad address delta varint", i, count)
		}
		off += n
		cur := uint64(int64(prev) + delta)
		dst = append(dst, Record{
			Kind: Kind(kindAndGap & 1),
			Gap:  uint32(kindAndGap >> 1),
			Addr: addr.Addr(cur),
		})
		prev = cur
	}
	if off != len(payload) {
		return dst, prev, fmt.Errorf("chunk has %d trailing bytes after %d records", len(payload)-off, count)
	}
	return dst, prev, nil
}

// ScanHeader carries the trace metadata parsed before the records.
type ScanHeader struct {
	Name    string
	Version int
	Threads int
}

// headerReader is what the shared header parser needs; bufio.Reader and the
// file source's position-tracking reader both satisfy it.
type headerReader interface {
	io.Reader
	io.ByteReader
}

// readHeader parses and validates the common file prefix — magic, version,
// name — shared by every decoder entry point (Scan, Decode, OpenSource), so
// the acceptance rules cannot drift between them.
func readHeader(r headerReader) (name string, version byte, err error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return "", 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return "", 0, fmt.Errorf("trace: bad magic %q", m)
	}
	if version, err = r.ReadByte(); err != nil {
		return "", 0, fmt.Errorf("trace: reading version: %w", err)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return "", 0, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > MaxNameLen {
		return "", 0, fmt.Errorf("trace: name length %d exceeds %d", nameLen, MaxNameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return "", 0, fmt.Errorf("trace: reading name: %w", err)
	}
	return string(nameBuf), version, nil
}

// readThreadCount parses and validates a thread-count field.
func readThreadCount(r io.ByteReader) (uint64, error) {
	threads, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("trace: reading thread count: %w", err)
	}
	if threads > MaxThreads {
		return 0, fmt.Errorf("trace: thread count %d exceeds %d", threads, MaxThreads)
	}
	return threads, nil
}

// sectionName renders a section index for error messages (0 is the init
// section, t+1 is thread t).
func sectionName(section int) string {
	if section == 0 {
		return "init section"
	}
	return fmt.Sprintf("thread %d", section-1)
}

// readSectionLens parses the declared per-section record totals of a v2
// header. The values are claims to be verified against the chunks, never
// allocation sizes, so they need no cap of their own.
func readSectionLens(r io.ByteReader, threads uint64) ([]uint64, error) {
	lens := make([]uint64, threads+1)
	for i := range lens {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: reading %s record total: %w", sectionName(i), err)
		}
		lens[i] = v
	}
	return lens, nil
}

// checkSectionLens compares accumulated chunk counts against the header's
// declared totals; a shortfall means the EOF-terminated chunk stream was cut
// at a chunk boundary.
func checkSectionLens(want, got []uint64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("trace: %s has %d records but the header declares %d (truncated or corrupt file)",
				sectionName(i), got[i], want[i])
		}
	}
	return nil
}

// Scan incrementally parses a trace in either binary format from r, calling
// fn for every record in file order. thread is -1 for the init section and
// the thread index otherwise. Memory is bounded by one chunk (v2) or one
// record (v1) regardless of trace length, which makes Scan the right tool for
// streaming statistics and for piping a trace through without holding it. An
// error from fn aborts the scan and is returned verbatim.
func Scan(r io.Reader, fn func(thread int, rec Record) error) (ScanHeader, error) {
	br := bufio.NewReader(r)
	var h ScanHeader
	name, version, err := readHeader(br)
	if err != nil {
		return h, err
	}
	h.Name, h.Version = name, int(version)
	switch version {
	case formatVersion1:
		err = scanV1(br, &h, fn)
	case formatVersion2:
		err = scanV2(br, &h, fn)
	default:
		return h, fmt.Errorf("trace: unsupported format version %d", version)
	}
	return h, err
}

// scanV1 walks the flat format: init records, thread count, per-thread
// records. Records are decoded one at a time — the untrusted count fields
// never size an allocation.
func scanV1(br *bufio.Reader, h *ScanHeader, fn func(thread int, rec Record) error) error {
	if err := scanV1Section(br, -1, fn); err != nil {
		return fmt.Errorf("trace: reading init section: %w", err)
	}
	threads, err := readThreadCount(br)
	if err != nil {
		return err
	}
	h.Threads = int(threads)
	for t := 0; t < h.Threads; t++ {
		if err := scanV1Section(br, t, fn); err != nil {
			return fmt.Errorf("trace: reading thread %d: %w", t, err)
		}
	}
	return nil
}

func scanV1Section(br *bufio.Reader, thread int, fn func(thread int, rec Record) error) error {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("reading record count: %w", err)
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		kindAndGap, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("record %d/%d: reading kind/gap: %w", i, count, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return fmt.Errorf("record %d/%d: reading address delta: %w", i, count, err)
		}
		cur := uint64(int64(prev) + delta)
		rec := Record{Kind: Kind(kindAndGap & 1), Gap: uint32(kindAndGap >> 1), Addr: addr.Addr(cur)}
		prev = cur
		if err := fn(thread, rec); err != nil {
			return err
		}
	}
	return nil
}

// walkChunks drives the chunk-header walk shared by the sequential decoder
// and the file-source index scan: it reads and validates every chunk header
// (section range, count/byteLen caps, declared-total accounting) and hands
// each chunk to handle, which must consume or skip exactly byteLen payload
// bytes from the stream. At EOF it verifies every section delivered its
// declared total — the check that catches files cut at a chunk boundary.
// Keeping the walk in one place keeps the two decoders' acceptance rules
// identical by construction.
func walkChunks(r io.ByteReader, threads uint64, want []uint64, handle func(chunk, section, count, byteLen int) error) error {
	got := make([]uint64, threads+1)
	for chunk := 0; ; chunk++ {
		section, err := binary.ReadUvarint(r)
		if err == io.EOF {
			// ReadUvarint returns io.EOF only when no bytes were read, so
			// this is a clean chunk boundary (mid-varint truncation comes
			// back as ErrUnexpectedEOF).
			return checkSectionLens(want, got)
		}
		if err != nil {
			return fmt.Errorf("trace: chunk %d: reading section: %w", chunk, err)
		}
		count, byteLen, err := readChunkHeader(r, section, threads)
		if err != nil {
			return fmt.Errorf("trace: chunk %d: %w", chunk, err)
		}
		if got[section] += uint64(count); got[section] > want[section] {
			return fmt.Errorf("trace: chunk %d: %s exceeds its declared %d records",
				chunk, sectionName(int(section)), want[section])
		}
		if err := handle(chunk, int(section), count, byteLen); err != nil {
			return err
		}
	}
}

// scanV2 walks the chunked format sequentially, decoding every payload.
func scanV2(br *bufio.Reader, h *ScanHeader, fn func(thread int, rec Record) error) error {
	threads, err := readThreadCount(br)
	if err != nil {
		return err
	}
	h.Threads = int(threads)
	want, err := readSectionLens(br, threads)
	if err != nil {
		return err
	}
	prev := make([]uint64, threads+1)
	var payload []byte
	var recs []Record
	return walkChunks(br, threads, want, func(chunk, section, count, byteLen int) error {
		if cap(payload) < byteLen {
			payload = make([]byte, byteLen)
		}
		payload = payload[:byteLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("trace: chunk %d: reading %d-byte payload: %w", chunk, byteLen, err)
		}
		var err error
		recs, prev[section], err = decodeChunk(recs[:0], payload, count, prev[section])
		if err != nil {
			return fmt.Errorf("trace: chunk %d (section %d): %w", chunk, section, err)
		}
		thread := section - 1 // section 0 is init = thread -1
		for _, rec := range recs {
			if err := fn(thread, rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// readChunkHeader reads and validates the count and byteLen fields of a chunk
// whose section tag has already been read.
func readChunkHeader(br io.ByteReader, section, threads uint64) (count, byteLen int, err error) {
	if section > threads {
		return 0, 0, fmt.Errorf("section %d out of range (%d threads)", section, threads)
	}
	c, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("reading record count: %w", err)
	}
	if c == 0 || c > maxChunkRecords {
		return 0, 0, fmt.Errorf("record count %d outside [1,%d]", c, maxChunkRecords)
	}
	b, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("reading payload length: %w", err)
	}
	// A record is at least two bytes (two one-byte varints), so a valid
	// payload is bounded both ways by the record count.
	if b < 2*c || b > maxChunkBytes {
		return 0, 0, fmt.Errorf("payload length %d implausible for %d records", b, c)
	}
	return int(c), int(b), nil
}

// Decode parses a trace in either binary format into a materialised Trace.
// Counts from the file never size allocations directly: memory grows with the
// bytes actually decoded, so a corrupt or truncated file yields a descriptive
// error instead of an attempted multi-GB allocation.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	h, err := Scan(r, func(thread int, rec Record) error {
		if thread < 0 {
			t.Init = append(t.Init, rec)
			return nil
		}
		for thread >= len(t.Parallel) {
			t.Parallel = append(t.Parallel, nil)
		}
		t.Parallel[thread] = append(t.Parallel[thread], rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Name = h.Name
	for len(t.Parallel) < h.Threads {
		t.Parallel = append(t.Parallel, nil)
	}
	return t, nil
}
