package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The P source of the per-layer metrics: the CPU profile of the traced
// repeats, taken in the benchmark process with runtime/pprof and folded
// here by package. The profile is a gzipped profile.proto message; only
// the fields the folding needs are decoded, so the benchmark needs
// nothing beyond the standard library.

// profileLayers are the packages reported as cpu.<name>: every layer of
// the engine the workloads run, and both workload packages.
var profileLayers = []string{
	"buffer", "netstack", "codec", "causal", "inflight", "statestore",
	"checkpoint", "operator", "job", "kafkasim", "synthetic", "nexmark",
}

const internalPrefix = "clonos/internal/"

// gcFrames are the runtime functions whose samples are garbage
// collection work, wherever they appear on the stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// foldProfile returns the share of the profile's CPU time (the last
// sample value) whose stack is garbage collection ("gc") or whose
// innermost clonos/internal frame is in each package, keyed by package.
// Time in neither (scheduler, system calls, the benchmark itself) is in
// no key, so the shares sum to at most 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		if layer := p.layerOf(s.locations); layer != "" {
			shares[layer] += v
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf folds one stack (leaf first).
func (p *profile) layerOf(locs []uint64) string {
	var frames []string
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			frames = append(frames, p.strings[p.functions[fn]])
		}
	}
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return ""
}

type sample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

// decodeProfile reads the Profile message fields sample (2), location
// (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, data)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	for id, fns := range p.locations {
		for _, fn := range fns {
			if _, ok := p.functions[fn]; !ok {
				return nil, fmt.Errorf("location %d names unknown function %d", id, fn)
			}
		}
	}
	return p, nil
}

// Protocol buffer wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField calls f for every field of a message: its number, wire type,
// and either the varint value or the length-delimited payload.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one value per field, or packed into a length-delimited payload.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("repeated varint with wire type %d", wire)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
