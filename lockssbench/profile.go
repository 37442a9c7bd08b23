package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile of the process between start and fold.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// fold stops the profile and charges every sample's CPU time to one layer:
// the innermost lockss/internal/<module> frame of its stack ("<module>"), or
// the benchmark's own frame ("bench") when that comes first. Samples from
// the GC's background workers are charged to "runtime.gc"; the remaining
// samples with neither kind of frame (scheduler, network poller) to
// "runtime". Standard-library frames are thereby charged to the code that
// called them. The values are seconds.
func (p *cpuProfile) fold() (map[string]float64, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range prof.samples {
		out[prof.layerOf(s.locs)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// layerOf names the layer a stack (leaf first) is charged to.
func (p *profile) layerOf(locs []uint64) string {
	gc := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			switch {
			case strings.HasPrefix(fn, "lockss/internal/"):
				mod := strings.TrimPrefix(fn, "lockss/internal/")
				if i := strings.IndexAny(mod, "./"); i >= 0 {
					mod = mod[:i]
				}
				return mod
			case strings.HasPrefix(fn, "main."):
				return "bench"
			case fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge":
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "runtime"
}

// profile is the part of a pprof profile the folding needs.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost first
	// (inlined callees precede their callers).
	locFuncs map[uint64][]string
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes.
// Only the fields the folding reads are decoded: sample (2), location (4),
// function (5) and string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawLoc struct {
		id    uint64
		funcs []uint64
	}
	var (
		samples []rawSample
		locs    []rawLoc
		funcs   = map[uint64]int64{} // function id -> name string index
		strs    []string
	)
	err = pbFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, w, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var l rawLoc
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					l.id = v
				case 4: // Line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locs))}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i, ok := funcs[f]; ok && i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[l.id] = names
	}
	for _, s := range samples {
		// CPU profiles carry [samples, cpu nanoseconds].
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		p.samples = append(p.samples, profSample{locs: s.locs, nanos: s.values[1]})
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func pbFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated bytes")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated integer field's values, packed (wire
// type 2) or not.
func pbAppendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
