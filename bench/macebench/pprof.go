package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzip-compressed profile.proto that runtime/pprof
// writes: just enough to turn every CPU sample into its stack of function
// names, leaf first. The toolchain's own reader lives under cmd/ and cannot
// be imported; shelling out to `go tool pprof` per traced run would cost a
// second or two each.

// protoBuf walks one protobuf message.
type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either a varint value or a
// length-delimited payload. Fixed-width fields are skipped.
func (p *protoBuf) next() (field int, v uint64, payload []byte, ok bool) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, p.varint(), nil, p.err == nil
		case 1:
			p.skip(8)
		case 2:
			n := p.varint()
			if p.err == nil && n > uint64(len(p.b)) {
				p.err = io.ErrUnexpectedEOF
			}
			if p.err != nil {
				return 0, 0, nil, false
			}
			payload = p.b[:n]
			p.b = p.b[n:]
			return field, 0, payload, true
		case 5:
			p.skip(4)
		default:
			p.err = fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

func (p *protoBuf) skip(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// repeated appends a repeated integer field that may arrive packed
// (payload) or one value at a time (v).
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	pb := protoBuf{b: payload}
	for len(pb.b) > 0 && pb.err == nil {
		dst = append(dst, pb.varint())
	}
	return dst, pb.err
}

// cpuSample is one stack with the number of profiler ticks that hit it.
type cpuSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
	)
	top := protoBuf{b: raw}
	for {
		field, _, payload, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			m := protoBuf{b: payload}
			for {
				f, v, pl, ok := m.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, pl)
				case 2:
					vals, err = repeated(vals, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoBuf{b: payload}
			for {
				f, v, pl, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lm := protoBuf{b: pl}
					for {
						lf, lv, _, ok := lm.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if lm.err != nil {
						return nil, lm.err
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoBuf{b: payload}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuLayers are the buckets every CPU sample folds into; the shares of one
// traced run sum to 1.
var cpuLayers = []string{"topology", "simnet", "transport", "core", "overlay", "overlays", "statecopy", "harness", "obs", "runtime", "other"}

// packageLayer maps a repository package onto its layer. The scenario
// engine, its schedule compiler and its checkers run as one layer.
var packageLayer = map[string]string{
	"topology":  "topology",
	"simnet":    "simnet",
	"transport": "transport",
	"core":      "core",
	"overlay":   "overlay",
	"overlays":  "overlays",
	"statecopy": "statecopy",
	"harness":   "harness",
	"scenario":  "harness",
	"check":     "harness",
	"metrics":   "harness",
	"obs":       "obs",
}

// gcOrMalloc reports whether a runtime frame belongs to the collector or
// the allocator: the cost that tracks mallocs_M and alloc_MB, kept apart
// from the layer that asked for the memory.
func gcOrMalloc(fn string) bool {
	for _, p := range []string{"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gc", "runtime.(*sweep"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sampleLayer folds one stack, leaf first, onto a layer: the collector and
// allocator are their own bucket; otherwise the nearest frame of a
// repository package claims the sample, so crypto/sha1 called from
// overlay.HashAddress lands on overlay. Stacks with neither are runtime
// (scheduler, idle) or other (the benchmark's own frames).
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if gcOrMalloc(fn) {
			return "runtime"
		}
		if rest, ok := strings.CutPrefix(fn, "macedon/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				if layer, ok := packageLayer[rest[:i]]; ok {
					return layer
				}
			}
		}
	}
	if len(stack) > 0 && (strings.HasPrefix(stack[0], "runtime.") || strings.HasPrefix(stack[0], "internal/runtime/")) {
		return "runtime"
	}
	return "other"
}

// cpuShares folds a profile into per-layer shares of its samples.
func cpuShares(samples []cpuSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		counts[sampleLayer(s.stack)] += s.count
		total += s.count
	}
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}
