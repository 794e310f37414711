package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile (profile.proto) the layer split
// needs: each sample's call stack, leaf first, as function names, and its
// CPU time.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // leaf-most frame first, inlined frames expanded
	ns    int64
}

// parseProfile decodes a gzipped pprof protobuf as runtime/pprof writes it.
// It is a minimal protobuf reader over the handful of message fields the
// layer split reads; everything else is skipped.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		valueTypes []int64 // string index of each sample value's type
		locLines   = map[uint64][]uint64{}
		funcName   = map[uint64]int64{}
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; charge the cpu
	// value, falling back to the last one.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	p := &profile{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(s.values), vi)
		}
		ps := profSample{ns: s.values[vi]}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined function to
			// the function it was inlined into.
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing fn the field
// number and either the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return fmt.Errorf("profile: truncated field %d", num)
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: truncated field %d", num)
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: one
// unpacked varint v (packed is nil), or a packed run of varints.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// module is the simulator's module path; frames under it belong to a layer.
const module = "c3d/"

// layerOf returns the layer a function belongs to: the last element of its
// package path when that package is a listed layer, else "".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, module) {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold other paths
	}
	pkg := fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	return ""
}

// gcFrames are the runtime functions at the root of collector work that runs
// on its own (background marking, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// layerOfSample charges a sample to the layer of its leaf-most frame in a
// listed layer, so library code (math/rand, map internals, allocation and
// assist-GC) counts for the simulator code that called it. Samples with no
// such frame are gc when collector work, other otherwise.
func layerOfSample(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	return "other"
}

// split returns each layer's CPU nanoseconds and the total.
func (p *profile) split() (map[string]int64, int64) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		byLayer[layerOfSample(s.stack)] += s.ns
		total += s.ns
	}
	return byLayer, total
}

// layerMetrics turns a profile of an op that consumed records trace records
// into the per-layer metrics: each layer's share of CPU time and its CPU
// nanoseconds per record.
func layerMetrics(p *profile, records int64) map[string]float64 {
	byLayer, total := p.split()
	out := map[string]float64{}
	for _, l := range layers {
		share, perAccess := 0.0, 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		if records > 0 {
			perAccess = float64(byLayer[l]) / float64(records)
		}
		out[l+".cpu_share"] = share
		out[l+".ns_per_access"] = perAccess
	}
	return out
}
