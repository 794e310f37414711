package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pbuf is a minimal protobuf writer for building profiles by hand.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (b *pbuf) varint(field int, v uint64) {
	b.uvarint(uint64(field) << 3)
	b.uvarint(v)
}

func (b *pbuf) message(field int, data []byte) {
	b.uvarint(uint64(field)<<3 | 2)
	b.uvarint(uint64(len(data)))
	b.Write(data)
}

func packed(vs ...uint64) []byte {
	var b pbuf
	for _, v := range vs {
		b.uvarint(v)
	}
	return b.Bytes()
}

// handProfile encodes a gzipped CPU profile with one sample per stack.
// Each stack is a list of locations, leaf first; each location lists its
// functions innermost first, as inlining records them. Location ids are
// unpacked on odd samples to cover both repeated-field encodings.
func handProfile(stacks [][][]string, ns []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := map[string]uint64{}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbuf
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.message(1, m.Bytes())
	}
	var locs, fns pbuf
	nextLoc := uint64(0)
	for i, stack := range stacks {
		var ids []uint64
		for _, loc := range stack {
			nextLoc++
			var l pbuf
			l.varint(1, nextLoc)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					strs = append(strs, fn)
					var f pbuf
					f.varint(1, id)
					f.varint(2, uint64(len(strs)-1))
					fns.message(5, f.Bytes())
				}
				var line pbuf
				line.varint(1, id)
				l.message(4, line.Bytes())
			}
			locs.message(4, l.Bytes())
			ids = append(ids, nextLoc)
		}
		var s pbuf
		if i%2 == 0 {
			s.message(1, packed(ids...))
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
		}
		s.message(2, packed(1, uint64(ns[i])))
		p.message(2, s.Bytes())
	}
	p.Write(locs.Bytes())
	p.Write(fns.Bytes())
	for _, s := range strs {
		p.message(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestLayerAttribution(t *testing.T) {
	loc := func(fns ...string) []string { return fns }
	stacks := [][][]string{
		// The leaf-most simulator frame wins.
		{loc("c3d/internal/cache.(*Cache).Lookup"), loc("c3d/internal/machine.(*Machine).Read")},
		// math/rand is charged to the generator that called it.
		{loc("math/rand.(*Rand).Float64"), loc("c3d/internal/workload.(*threadReader).Next"), loc("c3d/internal/machine.(*Machine).execute")},
		// Background collector work.
		{loc("runtime.scanobject"), loc("runtime.gcDrain"), loc("runtime.gcBgMarkWorker")},
		// Neither simulator nor collector.
		{loc("runtime.futex"), loc("runtime.mcall")},
		// A package that is not a layer (addr) counts for its caller.
		{loc("c3d/internal/addr.PageOf"), loc("c3d/internal/numa.(*PageTable).Touch")},
		// Map internals inlined into a simulator frame of one location.
		{loc("runtime.mapaccess2_fast64", "c3d/internal/tlb.(*Classifier).Access")},
		// Type arguments may name other packages.
		{loc("c3d/internal/sim.(*Queue[go.shape.struct { c3d/internal/addr.Block }]).Push")},
	}
	ns := []int64{40, 20, 10, 10, 5, 10, 5}
	p, err := parseProfile(handProfile(stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(p.samples), len(stacks))
	}
	want := []string{"cache", "workload", "gc", "other", "numa", "tlb", "sim"}
	for i, s := range p.samples {
		if got := layerOfSample(s.stack); got != want[i] {
			t.Errorf("sample %d (%v) charged to %q, want %q", i, s.stack, got, want[i])
		}
	}
	m := layerMetrics(p, 50)
	sum := 0.0
	for _, l := range layers {
		sum += m[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := m["cache.cpu_share"]; !near(got, 0.4) {
		t.Errorf("cache share = %v, want 0.4", got)
	}
	if got := m["workload.ns_per_access"]; !near(got, 20.0/50) {
		t.Errorf("workload ns/access = %v, want 0.4", got)
	}
	if got := m["gc.cpu_share"]; !near(got, 0.1) {
		t.Errorf("gc share = %v, want 0.1", got)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	data := handProfile([][][]string{{{"c3d/internal/sim.F"}}}, []int64{1})
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := parseProfile(z.Bytes()); err == nil {
		t.Error("a truncated profile parsed")
	}
}
