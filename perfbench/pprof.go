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

// The traced run attributes CPU time and heap allocation to layers from
// runtime/pprof's CPU and allocs profiles. A profile is a
// gzip-compressed protocol buffer
// (github.com/google/pprof/proto/profile.proto); this file decodes the
// few fields the attribution needs, with the standard library only.

// layers are the repository packages that get their own CPU bucket, in
// report order. A sample is charged to the innermost frame on its
// stack that belongs to one of them, so Go allocator and GC-assist
// frames count against the layer that allocated.
var layers = []string{
	"simclock", "gpusim", "costmodel", "nccl", "parallel", "liger", "runtimes",
	"serve", "kvcache", "generate", "cluster", "trace", "analyze", "metrics",
}

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "liger/internal/"

// buckets maps a bucket name (a layer, "go.gc" or "other") to the
// profile value charged to it: CPU nanoseconds or allocated bytes.
type buckets map[string]int64

// gcFrames mark background garbage-collector work: samples that reach
// one of them without passing a layer frame are charged to go.gc.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a function name belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// attribute adds every sample's value of the named sample type ("cpu"
// in a CPU profile, "alloc_space" in an allocs profile) in a
// gzip-compressed profile to b.
func (b buckets) attribute(gz []byte, sampleType string) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	v := -1
	for i, t := range p.types {
		if t >= 0 && t < int64(len(p.strs)) && p.strs[t] == sampleType {
			v = i
		}
	}
	if v < 0 {
		return fmt.Errorf("profile has no %s samples", sampleType)
	}
	for _, s := range p.samples {
		if v < len(s.values) {
			b[p.bucket(s.locs)] += s.values[v]
		}
	}
	return nil
}

// bucket names the bucket of one sample's stack (leaf first).
func (p *profile) bucket(locs []uint64) string {
	gc := false
	for _, id := range locs {
		for _, fid := range p.locs[id] {
			name := p.name(fid)
			if l := layerOf(name); l != "" {
				return l
			}
			for _, g := range gcFrames {
				if name == g {
					gc = true
				}
			}
		}
	}
	if gc {
		return "go.gc"
	}
	return "other"
}

type sample struct {
	locs   []uint64
	values []int64
}

// profile holds the decoded parts of a profile: the sample types as
// their name's string-table index, samples, locations as their
// function ids (innermost inlined frame first), functions as their
// name's string-table index, and the string table.
type profile struct {
	types   []int64
	samples []sample
	locs    map[uint64][]uint64
	funcs   map[uint64]int64
	strs    []string
}

func (p *profile) name(fid uint64) string {
	if i, ok := p.funcs[fid]; ok && i >= 0 && i < int64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	valueTypeType  = 1
	sampleLocation = 1
	sampleValue    = 2
	locID          = 1
	locLine        = 4
	lineFunction   = 1
	funcID         = 1
	funcName       = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err = fields(raw, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			t := int64(-1)
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				if num == valueTypeType {
					t = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.types = append(p.types, t)
		case profSample:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(data, func(num, wire int, v uint64, data []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case profStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// parseSample decodes one Sample: its location ids and its values, one
// per sample type.
func parseSample(data []byte) (sample, error) {
	var s sample
	var values []uint64
	err := fields(data, func(num, wire int, v uint64, data []byte) error {
		var dst *[]uint64
		switch num {
		case sampleLocation:
			dst = &s.locs
		case sampleValue:
			dst = &values
		default:
			return nil
		}
		if wire != wireBytes {
			*dst = append(*dst, v)
			return nil
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
	})
	for _, v := range values {
		s.values = append(s.values, int64(v))
	}
	return s, err
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// fields walks the fields of one encoded message, handing each to fn
// with its varint value (wire types 0, 1 and 5) or its bytes (type 2).
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
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
		case wire64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
