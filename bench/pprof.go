package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: function names leaf first, and the
// sample's weight (nanoseconds when the profile has them, else a count).
type stackSample struct {
	funcs  []string
	weight int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what the fold needs: each sample's function names and weight.
// The standard library has no importable decoder and the repo takes no
// dependencies, hence the few dozen lines of protobuf reading here.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf (innermost inline) first
		funcNames = map[uint64]int64{}    // function id -> string-table index
		strs      []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, pb)
				case 2:
					for _, u := range appendVarints(nil, v, pb) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(pb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{weight: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with the varint value
// (wire type 0) or the bytes (wire type 2) of each field.
func protoFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("truncated field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("truncated varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed bytes
// when present, else the single unpacked value.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

// Runtime frames that mark a sample as garbage collection or as goroutine
// scheduling. GC wins over any onepass frame below it (an allocation that
// is made to assist the collector is collector time); scheduling only counts
// on stacks with no onepass frame — the hand-offs between sim procs run on
// the scheduler's own stack.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.GC",
		"runtime.(*sweepLocked).sweep", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.goexit0", "runtime.gosched",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.mstart",
		"runtime.resetspinning", "runtime.execute", "runtime.goready",
		"runtime.ready", "runtime.runqgrab", "runtime.stealWork",
		"runtime.futex",
	}
)

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOf maps a function name to the layer (package) that owns it, or ""
// for frames outside the repo. The harness's own frames are layer "bench".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may name other packages
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "onepass."):
		return "onepass"
	case strings.HasPrefix(fn, "onepass/"):
		rest := fn[strings.LastIndexByte(fn, '/')+1:]
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// classify attributes one stack (leaf first) to a share bucket.
func classify(funcs []string) string {
	for _, fn := range funcs {
		if hasAnyPrefix(fn, gcFrames) {
			return "runtime.gc_share"
		}
	}
	for _, fn := range funcs {
		if l := layerOf(fn); l != "" {
			return l + ".cpu_share"
		}
	}
	for _, fn := range funcs {
		if hasAnyPrefix(fn, schedFrames) {
			return "runtime.sched_share"
		}
	}
	return "runtime.other_share"
}

// foldShares folds samples onto the per-layer share metrics. Every listed
// share is present (0 when it took no sample) and they sum to 1; repo
// packages without a row of their own are counted under the root package.
func foldShares(samples []stackSample) map[string]float64 {
	out := map[string]float64{
		"runtime.gc_share": 0, "runtime.sched_share": 0, "runtime.other_share": 0,
	}
	for _, p := range cpuSharePackages {
		out[p+".cpu_share"] = 0
	}
	var total float64
	for _, s := range samples {
		bucket := classify(s.funcs)
		if _, ok := out[bucket]; !ok {
			bucket = "onepass.cpu_share"
		}
		out[bucket] += float64(s.weight)
		total += float64(s.weight)
	}
	if total == 0 {
		out["runtime.other_share"] = 1 // no samples: nothing to attribute
		return out
	}
	for k := range out {
		out[k] /= total
	}
	return out
}
