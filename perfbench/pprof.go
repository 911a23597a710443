package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes. It keeps only what the layer rollup needs: each sample's
// weight and its call stack as function names, leaf first, with inlined
// frames expanded innermost first. The module is stdlib-only, so the
// wire format is decoded by hand; the field numbers are those of
// profile.proto in github.com/google/pprof.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one profile sample: its sample count and its frames,
// innermost first.
type stackSample struct {
	Count  int64
	Frames []string
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := packedOrOne(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packedOrOne(w, v, b)
					if len(vals) > 0 && first {
						s.count = int64(vals[0])
						first = false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{Count: s.count}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				name := ""
				if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.Frames = append(st.Frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of one protobuf message. For a
// varint field v holds the value; for a length-delimited field b holds
// the bytes. Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// packedOrOne returns a repeated varint field's values, whether it was
// encoded packed (wire type 2) or as a single varint.
func packedOrOne(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
