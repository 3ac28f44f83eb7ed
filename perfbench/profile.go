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

// The CPU profile is decoded here rather than through a pprof library: the
// benchmark imports nothing beyond the standard library and the repository.
// Only the fields the attribution needs are read from profile.proto:
// Profile.sample (2), Profile.location (4), Profile.function (5),
// Profile.string_table (6); Sample.location_id (1) and Sample.value (2);
// Location.id (1) and Location.line (4); Line.function_id (1); Function.id
// (1) and Function.name (2).

// profStack is one sample: its function names, leaf first, and its count.
type profStack struct {
	frames []string
	count  int64
}

// decodeProfile parses a gzipped profile.proto into its samples.
func decodeProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		st := profStack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n >= 0 && n < int64(len(strs)) {
					st.frames = append(st.frames, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the protobuf fields of msg, handing each to fn with its
// number, wire type and varint value (wire type 0) or payload (type 2).
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// selfShares partitions the samples by the layer of their leaf frame and
// returns each layer's share in percent, keyed by metric name. Every
// selfPctLayers entry, runtime.gc_self_pct and unattributed.self_pct is
// present, and the shares sum to 100 (all zero for an empty profile).
func selfShares(stacks []profStack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[leafLayer(s.frames)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, l := range selfPctLayers {
		out[l+".self_pct"] = pct(counts[l], total)
	}
	out["runtime.gc_self_pct"] = pct(counts["runtime.gc"], total)
	out["unattributed.self_pct"] = pct(counts[""], total)
	return out
}

func pct(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// leafLayer names the layer a sample is charged to: the repository package
// of the leaf frame. Two runtime cases are charged by their caller: a
// runtime leaf under a coroutine switch belongs to sim (every simulated
// process is an iter.Pull coroutine), and one under the garbage collector to
// runtime.gc. Anything else returns "" (unattributed).
func leafLayer(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	if l := repoLayer(frames[0]); l != "" || !isRuntime(frames[0]) {
		return l
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.coro") || strings.HasPrefix(f, "iter."):
			return "sim"
		case isGCFrame(f):
			return "runtime.gc"
		case !isRuntime(f):
			return ""
		}
	}
	return ""
}

// repoLayer maps a function name to its selfPctLayers entry ("" if none).
func repoLayer(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	pkg := rest
	if i := strings.Index(rest, "."); i >= 0 {
		pkg = rest[:i]
	}
	if pkg == "sim/shard" {
		return "shard"
	}
	for _, l := range selfPctLayers {
		if pkg == l {
			return l
		}
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "iter.")
}

// isGCFrame reports whether fn is one of the garbage collector's entry
// points: background and assisted marking, sweeping and scavenging.
func isGCFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.gcStart", "runtime.markroot", "runtime.scanobject",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
