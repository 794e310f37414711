package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode drives arbitrary bytes through both decoders. Invariants:
//
//  1. Neither Decode nor OpenSource panics or attempts input-proportional-
//     plus allocations on hostile input (the caps turn lies into errors);
//  2. anything Decode accepts survives an EncodeSource/Decode round trip
//     exactly;
//  3. Decode and OpenSource agree record for record: on chunked (v2) input
//     the sequential decoder against the indexed file source, on flat (v1)
//     input Decode against the whole-file decode behind OpenSource.
func FuzzDecode(f *testing.F) {
	// Seeds stay small (the multi-chunk seed barely crosses one chunk
	// boundary) so the fuzzing engine gets a high exec rate; the large-trace
	// paths are covered by the deterministic tests.
	v1, err := os.ReadFile(filepath.Join("testdata", "golden-v1.c3dt"))
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := EncodeSource(&v2, chunkyTrace(chunkRecords+5).Source()); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add(v1[:len(v1)/2])
	f.Add(v2.Bytes()[:v2.Len()/3])
	f.Add([]byte("C3DT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if err := EncodeSource(&buf, tr.Source()); err != nil {
				t.Fatalf("re-encoding a decoded trace: %v", err)
			}
			tr2, err := Decode(&buf)
			if err != nil {
				t.Fatalf("re-decoding: %v", err)
			}
			if !reflect.DeepEqual(tr, tr2) {
				t.Fatal("decode→encode→decode is not a fixed point")
			}
		}
		fs, ferr := OpenSource(bytes.NewReader(data), int64(len(data)))
		// The decoders must agree exactly on acceptance, in both directions.
		if err == nil && ferr != nil {
			t.Fatalf("sequential decoder accepted what OpenSource rejected: %v", ferr)
		}
		if ferr != nil {
			return
		}
		mat, merr := Materialize(fs)
		if (err == nil) != (merr == nil) {
			t.Fatalf("decoder disagreement: Decode err=%v, Materialize err=%v", err, merr)
		}
		if err == nil && !reflect.DeepEqual(tr, mat) {
			t.Fatal("Decode and OpenSource disagree on content")
		}
	})
}
