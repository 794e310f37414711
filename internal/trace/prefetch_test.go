package trace

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"c3d/internal/addr"
)

// countReader emits n distinct records, then fails with err if it is set.
type countReader struct {
	n, i int
	err  error
}

func (r *countReader) Next() (Record, bool) {
	if r.i >= r.n {
		return Record{}, false
	}
	r.i++
	return Record{Kind: Kind(r.i % 2), Addr: addr.Addr(r.i) * 64, Gap: uint32(r.i % 7)}, true
}

func (r *countReader) Err() error {
	if r.i >= r.n {
		return r.err
	}
	return nil
}

// drain reads rr to its end the way every consumer does.
func drain(rr RecordReader) ([]Record, error) {
	var recs []Record
	for {
		rec, ok := rr.Next()
		if !ok {
			return recs, rr.Err()
		}
		recs = append(recs, rec)
	}
}

// drainBatches reads b to its end and checks every batch is non-empty.
func drainBatches(t *testing.T, b *Batches) ([]Record, error) {
	t.Helper()
	var recs []Record
	for batch := b.Next(); batch != nil; batch = b.Next() {
		if len(batch) == 0 {
			t.Fatal("Next returned an empty batch")
		}
		recs = append(recs, batch...)
	}
	if b.Next() != nil {
		t.Error("Next returned a batch after the section ended")
	}
	return recs, b.Err()
}

// prefetched reads rr through a prefetching Batches and joins its producer.
func prefetched(t *testing.T, rr RecordReader) ([]Record, error) {
	t.Helper()
	var wg sync.WaitGroup
	recs, err := drainBatches(t, Prefetch(context.Background(), &wg, rr))
	wg.Wait()
	return recs, err
}

// Batched and Prefetch hand over the bare reader's records one for one at
// every length around the batch size.
func TestBatchesMatchBareReader(t *testing.T) {
	const b = PrefetchBatch
	for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
		want, _ := drain(&countReader{n: n})
		for name, read := range map[string]func() ([]Record, error){
			"prefetch": func() ([]Record, error) { return prefetched(t, &countReader{n: n}) },
			"plain":    func() ([]Record, error) { return drainBatches(t, Batched(&countReader{n: n})) },
		} {
			got, err := read()
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s n=%d: got %d records, want the bare reader's %d", name, n, len(got), n)
			}
		}
	}
}

// An in-memory reader is read on the consumer's goroutine, its remaining
// records in one batch.
func TestPrefetchLeavesSliceReaderPlain(t *testing.T) {
	tr := chunkyTrace(3*PrefetchBatch + 7)
	var wg sync.WaitGroup
	b := Prefetch(context.Background(), &wg, tr.Source().OpenThread(1))
	if b.full != nil {
		t.Fatal("Prefetch started a producer for an in-memory reader")
	}
	got, err := drainBatches(t, b)
	if err != nil || !reflect.DeepEqual(got, tr.Parallel[1]) {
		t.Errorf("slice reader through Prefetch: %d records, err %v; want %d records", len(got), err, len(tr.Parallel[1]))
	}
}

// A reader that fails mid-stream reports the same error after the same
// records, whether it is read bare or through either kind of Batches.
func TestBatchesReportReaderErrorInOrder(t *testing.T) {
	boom := errors.New("boom")
	want, wantErr := drain(&countReader{n: 2*PrefetchBatch + 5, err: boom})
	for name, read := range map[string]func() ([]Record, error){
		"prefetch": func() ([]Record, error) { return prefetched(t, &countReader{n: 2*PrefetchBatch + 5, err: boom}) },
		"plain": func() ([]Record, error) {
			return drainBatches(t, Batched(&countReader{n: 2*PrefetchBatch + 5, err: boom}))
		},
	} {
		got, err := read()
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d records then %v, want %d then %v", name, len(got), err, len(want), wantErr)
		}
	}

	// A trace file truncated after it was opened fails inside a thread's
	// second chunk.
	tr := chunkyTrace(10_000)
	var buf bytes.Buffer
	if err := EncodeSource(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	fs := src.(*fileSource)
	cut := fs.chunks[1][1].off + 10
	fs.ra = bytes.NewReader(buf.Bytes()[:cut])
	want, wantErr = drain(src.OpenThread(0))
	if wantErr == nil || len(want) != fs.chunks[1][0].count {
		t.Fatalf("truncated file: bare reader read %d records then %v", len(want), wantErr)
	}
	got, err := prefetched(t, src.OpenThread(0))
	if err == nil || err.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
		t.Errorf("truncated file through Prefetch: %d records then %v, want %d then %v", len(got), err, len(want), wantErr)
	}
}

// Cancelling the context ends a prefetching reader with ctx's error and
// lets its producer exit, even while the consumer holds unreturned batches.
func TestPrefetchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	b := Prefetch(ctx, &wg, &countReader{n: 1 << 30})
	if b.Next() == nil {
		t.Fatalf("no first batch: %v", b.Err())
	}
	cancel()
	wg.Wait()
	for b.Next() != nil {
	}
	if !errors.Is(b.Err(), context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", b.Err())
	}
}
