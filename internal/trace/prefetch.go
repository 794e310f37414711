package trace

import (
	"context"
	"sync"
)

// PrefetchBatch is the number of records a prefetching Batches reader hands
// over at once. A stream shorter than one batch gives its producer nothing
// to run ahead of, so a consumer reads it plainly.
const PrefetchBatch = 1024

// prefetchBuffers is the ring of batch buffers each prefetching reader
// recycles: the producer fills one while the consumer reads the other. More
// buffers let a producer run further ahead but do not make the run faster,
// and each costs resident memory in every thread.
const prefetchBuffers = 2

// Batches reads one section's records a batch at a time, so a consumer's
// per-record work is a slice index rather than an interface call. A plain
// Batches (Batched) reads its reader on the consumer's goroutine; a
// prefetching one (Prefetch) has a producer goroutine fill batches ahead of
// the consumer, which is how a generated stream is produced on another core
// while the timing model consumes it.
//
// A Batches is used by one consumer goroutine.
type Batches struct {
	// Plain mode reads rr directly; one holds its single-record batch.
	rr  RecordReader
	one [1]Record

	// Prefetch mode receives filled batches on full and returns each one to
	// free once the consumer moves past it. Each channel can hold every
	// buffer of the ring, so returning a buffer to free never blocks.
	ctx  context.Context
	full chan []Record
	free chan []Record
	cur  []Record
	// perr is the producer's final error, written before it closes full.
	perr error

	done bool
	err  error
}

// Batched returns a plain Batches over rr: every batch is read on the
// caller's goroutine. An in-memory reader hands over all its remaining
// records as one batch; any other reader hands over one record at a time,
// so nothing is read ahead of the consumer.
func Batched(rr RecordReader) *Batches {
	return &Batches{rr: rr}
}

// Prefetch returns a Batches over rr whose batches a producer goroutine
// fills ahead of the consumer, through a ring of prefetchBuffers recycled
// buffers of PrefetchBatch records. The producer is registered on wg, reads
// rr on its own goroutine from then on, and exits once rr is exhausted or
// ctx is done; cancel ctx and wait on wg to stop and join it early. A
// reader error reaches the consumer in order: Next returns every record read
// before it, then nil, and Err returns it.
//
// An in-memory reader is not worth a goroutine: Prefetch returns Batched(rr)
// for it.
func Prefetch(ctx context.Context, wg *sync.WaitGroup, rr RecordReader) *Batches {
	if _, ok := rr.(*sliceReader); ok {
		return Batched(rr)
	}
	b := &Batches{
		ctx:  ctx,
		full: make(chan []Record, prefetchBuffers),
		free: make(chan []Record, prefetchBuffers),
	}
	ring := make([]Record, prefetchBuffers*PrefetchBatch)
	for i := range prefetchBuffers {
		b.free <- ring[i*PrefetchBatch : (i+1)*PrefetchBatch : (i+1)*PrefetchBatch]
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.produce(rr)
	}()
	return b
}

// produce fills free buffers from rr and sends them on full until rr is
// exhausted, fails or ctx is done, then records why and closes full.
func (b *Batches) produce(rr RecordReader) {
	defer close(b.full)
	for {
		var buf []Record
		select {
		case buf = <-b.free:
		case <-b.ctx.Done():
			b.perr = b.ctx.Err()
			return
		}
		n, end := 0, false
		for n < len(buf) {
			rec, ok := rr.Next()
			if !ok {
				b.perr, end = rr.Err(), true
				break
			}
			buf[n] = rec
			n++
		}
		if n > 0 {
			select {
			case b.full <- buf[:n]:
			case <-b.ctx.Done():
				b.perr = b.ctx.Err()
				return
			}
		}
		if end {
			return
		}
	}
}

// Next returns the next batch of records, or nil once the section is
// exhausted or a read failed; Err tells the two apart. A batch is never
// empty, and it stays valid until the following call to Next.
func (b *Batches) Next() []Record {
	if b.done {
		return nil
	}
	if b.rr != nil {
		return b.nextPlain()
	}
	if b.cur != nil {
		b.free <- b.cur[:cap(b.cur)]
		b.cur = nil
	}
	select {
	case buf, ok := <-b.full:
		if ok {
			b.cur = buf
			return buf
		}
		b.done, b.err = true, b.perr
	case <-b.ctx.Done():
		b.done, b.err = true, b.ctx.Err()
	}
	return nil
}

func (b *Batches) nextPlain() []Record {
	if s, ok := b.rr.(*sliceReader); ok {
		rest := s.recs[s.i:]
		s.i = len(s.recs)
		if len(rest) > 0 {
			return rest
		}
	} else if rec, ok := b.rr.Next(); ok {
		b.one[0] = rec
		return b.one[:]
	}
	b.done, b.err = true, b.rr.Err()
	return nil
}

// Err returns the error that ended the section, or nil if it ended because
// every record was read. It is meaningful once Next has returned nil.
func (b *Batches) Err() error { return b.err }
