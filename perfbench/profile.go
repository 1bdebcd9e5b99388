package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes the runtime/pprof CPU profile format (gzipped
// profile.proto) just far enough to charge each sample's CPU time to a
// layer. The module has no dependencies, so the protobuf wire format is
// read by hand.

type pprofFunction struct {
	name, file string
}

// pprofSample is one stack: location ids leaf first, and its CPU time.
type pprofSample struct {
	locs  []uint64
	cpuNs int64
}

type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]pprofFunction
}

func parsePprof(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]pprofFunction{}}
	var strs []string
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s pprofSample
			var vals []int64
			if err := forFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, pb)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			// runtime/pprof writes [samples/count, cpu/nanoseconds].
			if len(vals) >= 2 {
				s.cpuNs = vals[1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := forFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var f rawFunc
			if err := forFields(b, func(ff int, v uint64, _ []byte) error {
				switch ff {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs = append(funcs, f)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for _, f := range funcs {
		p.functions[f.id] = pprofFunction{name: str(f.name), file: str(f.file)}
	}
	return p, nil
}

// forFields walks a protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
func forFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (data != nil) or as a single unpacked value.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf names the layer a sample's CPU is charged to: the package of
// its innermost frame in this repository (so stdlib and runtime frames
// beneath it count toward it), split by file within the operators and
// storage packages; core's delta*.go files count as the delta layer.
// Samples with no repository frame are charged to "go"; the benchmark's
// own code to "bench".
func (p *pprofProfile) layerOf(s pprofSample) (layer, sub string) {
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			f := p.functions[fid]
			if strings.HasPrefix(f.name, "main.") {
				return "bench", ""
			}
			rest, ok := strings.CutPrefix(f.name, "pregelix/")
			if !ok {
				continue
			}
			pkg, _, _ := strings.Cut(rest, ".") // "internal/operators.(*T).f"
			if i := strings.LastIndex(pkg, "/"); i >= 0 {
				pkg = pkg[i+1:]
			}
			if pkg == "perfbench" { // this package, when built as a test
				return "bench", ""
			}
			switch {
			case pkg == "core" && strings.HasPrefix(path.Base(f.file), "delta"):
				// The delta-refresh driver lives in core's delta*.go.
				return "delta", ""
			case pkg == "operators" && strings.HasSuffix(f.file, "groupby.go"):
				sub = "groupby"
			case pkg == "operators" && strings.HasSuffix(f.file, "join.go"):
				sub = "join"
			case pkg == "storage" && strings.HasSuffix(f.file, "runfile.go"):
				sub = "runfile"
			}
			return pkg, sub
		}
	}
	return "go", ""
}
