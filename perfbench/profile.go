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

// stackSample is one CPU-profile sample: its weight and its function names
// from the leaf frame to the root frame, inlined frames included.
type stackSample struct {
	Weight int64
	Frames []string
}

// gcFrames mark a sample taken in a garbage-collector worker.
var gcFrames = setOf("runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge")

// handoffFrames are Go channel, park and scheduler functions. A sample
// with one of them below its innermost repro frame is goroutine hand-off
// cost. General runtime helpers that these also call (lock2, osyield,
// casgstatus, ...) are left out, so that the same helpers under an
// allocation stay with the allocating package.
var handoffFrames = setOf(
	"runtime.chanrecv", "runtime.chanrecv1", "runtime.chanrecv2",
	"runtime.chansend", "runtime.chansend1", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.park_m", "runtime.mcall",
	"runtime.schedule", "runtime.findRunnable", "runtime.stealWork",
	"runtime.execute", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.handoffp", "runtime.goschedImpl",
	"runtime.gosched_m", "runtime.futex", "runtime.futexsleep",
	"runtime.futexwakeup",
)

// allocFrames mark memory allocation. Below the innermost repro frame they
// keep a sample with the package, even when the allocator waits on a lock.
var allocFrames = setOf("runtime.mallocgc")

const reproPrefix = "repro/internal/"

// reproPackage returns the package of a repro/internal function name such
// as "repro/internal/sim.(*Proc).Advance".
func reproPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, reproPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// attribute returns the layer a sample's CPU time belongs to:
//   - "go.gc" when a garbage-collector worker frame is on the stack;
//   - the package of the innermost repro/internal frame when an
//     allocator frame sits below it;
//   - "go.handoff" when a scheduler or channel frame sits below the
//     innermost repro frame, or on a stack with no repro frame;
//   - otherwise the package of the innermost repro/internal frame;
//   - "go.other" for runtime work with neither.
func attribute(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "go.gc"
		}
	}
	handoff, alloc := false, false
	for _, f := range frames {
		if pkg, ok := reproPackage(f); ok {
			if handoff && !alloc {
				return "go.handoff"
			}
			return pkg
		}
		handoff = handoff || handoffFrames[f]
		alloc = alloc || allocFrames[f]
	}
	if handoff && !alloc {
		return "go.handoff"
	}
	return "go.other"
}

// cpuShares returns each layer's share of the samples' total weight. The
// shares sum to 1 (an empty profile yields an empty map).
func cpuShares(samples []stackSample) map[string]float64 {
	var total int64
	weights := map[string]int64{}
	for _, s := range samples {
		weights[attribute(s.Frames)] += s.Weight
		total += s.Weight
	}
	out := make(map[string]float64, len(weights))
	if total == 0 {
		return out
	}
	for k, v := range weights {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// parseCPUProfile decodes a gzipped pprof protobuf as written by
// runtime/pprof and returns its samples weighted by CPU time.
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = walkMessage(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walkMessage(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkMessage(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkMessage(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkMessage(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkMessage(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no sample types")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("sample has %d values, want > %d", len(s.values), vi)
		}
		ss := stackSample{Weight: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.Frames = append(ss.Frames, str(funcNames[fn]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// walkMessage calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b the bytes of a length-delimited field.
func walkMessage(m []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(m) > 0 {
		key, n := binary.Uvarint(m)
		if n <= 0 {
			return errors.New("protobuf: bad field key")
		}
		m = m[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(m)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			m = m[n:]
		case 1:
			if len(m) < 8 {
				return errors.New("protobuf: short fixed64")
			}
			m = m[8:]
		case 2:
			l, n := binary.Uvarint(m)
			if n <= 0 || uint64(len(m)-n) < l {
				return errors.New("protobuf: bad length")
			}
			b, m = m[n:n+int(l)], m[n+int(l):]
		case 5:
			if len(m) < 4 {
				return errors.New("protobuf: short fixed32")
			}
			m = m[4:]
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b set) or not.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("protobuf: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
