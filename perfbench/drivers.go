package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/enzo"
	"repro/internal/hdf5"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// The layer drivers time calls into one layer's public functions at the
// workload's rank count, machine, file system, codec and field bytes. Each
// returns its measurements, and an error if the layer's output was wrong.

// driverReps is how many times a driver repeats its timed loop; it reports
// the median.
const driverReps = 3

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timedMedian runs f driverReps times and returns the median of its
// results, stopping at the first error.
func timedMedian(f func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, driverReps)
	for i := 0; i < driverReps; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// driveHandoff measures ns per Proc.Advance dispatch among np processes
// that all advance in lock step, so nearly every Advance hands off.
func driveHandoff(np int) (float64, error) {
	steps := 400000 / np
	return timedMedian(func() (float64, error) {
		eng := sim.NewEngine()
		for i := 0; i < np; i++ {
			eng.Spawn("p"+strconv.Itoa(i), func(p *sim.Proc) {
				for s := 0; s < steps; s++ {
					p.Advance(1)
				}
			})
		}
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(eng.Events()), nil
	})
}

// driveAllgather measures Rank.AllgatherInt64: host µs per call, and the
// exact engine events per call and messages each rank sends per call.
func driveAllgather(np int, mc machine.Config) (us, events, msgs float64, err error) {
	calls := max(16, 4096/np)
	world := func(calls int) (wall time.Duration, ev int64, msgs int64, err error) {
		eng := sim.NewEngine()
		var bad error
		mpi.NewWorld(eng, machine.New(mc), np, func(r *mpi.Rank) {
			r.Barrier()
			t0, m0 := time.Now(), r.MsgsSent()
			for c := 0; c < calls; c++ {
				out := r.AllgatherInt64(int64(r.Rank() * (c + 1)))
				for j, v := range out {
					if v != int64(j*(c+1)) && bad == nil {
						bad = fmt.Errorf("allgather: rank %d got %d from rank %d, want %d", r.Rank(), v, j, j*(c+1))
					}
				}
			}
			m1 := r.MsgsSent()
			r.Barrier()
			if r.Rank() == 0 {
				wall, msgs = time.Since(t0), m1-m0
			}
		})
		if err := eng.Run(); err != nil {
			return 0, 0, 0, err
		}
		return wall, eng.Events(), msgs, bad
	}
	_, ev0, _, err := world(0)
	if err != nil {
		return 0, 0, 0, err
	}
	var evN, msgN int64
	us, err = timedMedian(func() (float64, error) {
		wall, ev, m, err := world(calls)
		evN, msgN = ev, m
		return wall.Seconds() * 1e6 / float64(calls), err
	})
	return us, float64(evN-ev0) / float64(calls), float64(msgN) / float64(calls), err
}

// hintsFor mirrors enzo.NewSim: ROMIO defaults with one aggregator per
// physical node.
func hintsFor(np int, mc machine.Config) mpiio.Hints {
	h := mpiio.DefaultHints()
	nodes := map[int]bool{}
	m := machine.New(mc)
	for i := 0; i < np; i++ {
		nodes[m.Node(i)] = true
	}
	h.CBNodes = len(nodes)
	return h
}

// collectiveWorld runs body on np ranks over a fresh machine and the
// workload's file system, and returns the first error a rank reported.
func collectiveWorld(w Workload, body func(r *mpi.Rank, fs pfs.FileSystem) error) error {
	eng := sim.NewEngine()
	mach := machine.New(w.Mach)
	fs, err := enzo.MakeFS(w.FS, mach)
	if err != nil {
		return err
	}
	var first error
	mpi.NewWorld(eng, mach, w.NP, func(r *mpi.Rank) {
		if err := body(r, fs); err != nil && first == nil {
			first = err
		}
	})
	if err := eng.Run(); err != nil {
		return err
	}
	return first
}

// driveMPIIO measures collective WriteAtAll and ReadAtAll of every root
// field's (Block,Block,Block) subarray, in host ms per call, and checks
// that the read returns what was written.
func driveMPIIO(w Workload, h *amr.Hierarchy) (readMS, writeMS float64, err error) {
	dims, fields := h.Root().Dims, h.Root().Fields
	pz, py, px := mpi.ProcGrid3D(w.NP)
	hints := hintsFor(w.NP, w.Mach)
	fieldBytes := int64(len(fields[0]))
	calls := float64(len(fields))
	var reads, writes []float64
	for rep := 0; rep < driverReps; rep++ {
		var rd, wr time.Duration
		err := collectiveWorld(w, func(r *mpi.Rank, fs pfs.FileSystem) error {
			sub := mpi.BlockDecompose3D(dims, pz, py, px, r.Rank(), amr.FieldElemSize)
			base := sub.Flatten()
			runs := make([]mpi.Run, len(base))
			at := func(f int) []mpi.Run {
				for i, b := range base {
					runs[i] = mpi.Run{Off: b.Off + int64(f)*fieldBytes, Len: b.Len}
				}
				return runs
			}
			blocks := make([][]byte, len(fields))
			for i, fld := range fields {
				blocks[i] = sub.GatherSub(fld)
			}
			f, err := mpiio.Open(r, fs, "perfbench.mpiio", mpiio.ModeCreate, hints)
			if err != nil {
				return err
			}
			r.Barrier()
			t0 := time.Now()
			for i, b := range blocks {
				f.WriteAtAll(at(i), b)
			}
			r.Barrier()
			if r.Rank() == 0 {
				wr = time.Since(t0)
			}
			f.Close()
			if f, err = mpiio.Open(r, fs, "perfbench.mpiio", mpiio.ModeRead, hints); err != nil {
				return err
			}
			bufs := make([][]byte, len(fields))
			r.Barrier()
			t0 = time.Now()
			for i := range fields {
				bufs[i] = make([]byte, sub.Bytes())
				f.ReadAtAll(at(i), bufs[i])
			}
			r.Barrier()
			if r.Rank() == 0 {
				rd = time.Since(t0)
			}
			f.Close()
			for i, b := range blocks {
				if !bytes.Equal(bufs[i], b) {
					return fmt.Errorf("mpiio: rank %d read back wrong bytes for field %d", r.Rank(), i)
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		reads = append(reads, rd.Seconds()*1e3/calls)
		writes = append(writes, wr.Seconds()*1e3/calls)
	}
	return median(reads), median(writes), nil
}

// driveHDF5 measures one HDF5 dump of the root fields (Create,
// CreateDataset, WriteHyperslab, Close) in host ms, and checks each dump
// by reading it back.
func driveHDF5(w Workload, h *amr.Hierarchy) (float64, error) {
	dims, fields := h.Root().Dims, h.Root().Fields
	pz, py, px := mpi.ProcGrid3D(w.NP)
	hints := hintsFor(w.NP, w.Mach)
	return timedMedian(func() (float64, error) {
		var wall time.Duration
		err := collectiveWorld(w, func(r *mpi.Rank, fs pfs.FileSystem) error {
			sub := mpi.BlockDecompose3D(dims, pz, py, px, r.Rank(), amr.FieldElemSize)
			blocks := make([][]byte, len(fields))
			for i, fld := range fields {
				blocks[i] = sub.GatherSub(fld)
			}
			r.Barrier()
			t0 := time.Now()
			hf, err := hdf5.Create(r, fs, "perfbench.h5", hdf5.DefaultConfig(), hints)
			if err != nil {
				return err
			}
			for i, b := range blocks {
				ds, err := hf.CreateDataset(amr.FieldNames[i], dims[:], amr.FieldElemSize)
				if err != nil {
					return err
				}
				ds.WriteHyperslab(sub, b)
				ds.Close()
			}
			hf.Close()
			r.Barrier()
			if r.Rank() == 0 {
				wall = time.Since(t0)
			}
			if hf, err = hdf5.OpenRead(r, fs, "perfbench.h5", hdf5.DefaultConfig(), hints); err != nil {
				return err
			}
			defer hf.Close()
			for i, b := range blocks {
				ds, err := hf.OpenDataset(amr.FieldNames[i])
				if err != nil {
					return err
				}
				buf := make([]byte, sub.Bytes())
				ds.ReadHyperslab(sub, buf)
				if !bytes.Equal(buf, b) {
					return fmt.Errorf("hdf5: rank %d read back wrong bytes for %s", r.Rank(), amr.FieldNames[i])
				}
			}
			return nil
		})
		return wall.Seconds() * 1e3, err
	})
}

// driverCodec is the workload's codec, or lzss when the workload runs
// without compression, so every workload reports codec throughput.
func driverCodec(w Workload) string {
	if compress.Active(w.Cfg.Codec) {
		return w.Cfg.Codec
	}
	return "lzss"
}

func mbps(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

// driveCompress measures compress.Pack and Unpack on the root field bytes.
func driveCompress(w Workload, data []byte) (packMBps, unpackMBps, ratio float64, err error) {
	c, err := compress.ByName(driverCodec(w))
	if err != nil {
		return 0, 0, 0, err
	}
	var unpacks []float64
	packMBps, err = timedMedian(func() (float64, error) {
		t0 := time.Now()
		blob := compress.Pack(c, data, 0)
		pack := time.Since(t0)
		t0 = time.Now()
		back, err := compress.Unpack(blob)
		unpacks = append(unpacks, mbps(len(data), time.Since(t0)))
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(back, data) {
			return 0, fmt.Errorf("compress: %s round trip changed the data", c.Name())
		}
		ratio = float64(len(data)) / float64(len(blob))
		return mbps(len(data), pack), nil
	})
	return packMBps, median(unpacks), ratio, err
}

// driveSplit measures castore.Split plus KeyOf on every chunk.
func driveSplit(data []byte) (float64, error) {
	const passes = 8
	return timedMedian(func() (float64, error) {
		t0 := time.Now()
		var n int
		for p := 0; p < passes; p++ {
			n = 0
			for _, ch := range castore.Split(data, castore.DefaultParams()) {
				castore.KeyOf(ch)
				n += len(ch)
			}
		}
		d := time.Since(t0)
		if n != len(data) {
			return 0, fmt.Errorf("castore: chunks cover %d of %d bytes", n, len(data))
		}
		return mbps(passes*len(data), d), nil
	})
}

// llcBytes reads the size of the largest CPU cache from sysfs (0 when
// unknown).
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// storeBytes is the ByteStore driver's working set: four times the last
// level cache, and at least 64 MiB, in whole MiB.
func storeBytes() int64 {
	n := 4 * llcBytes()
	if n < 64<<20 {
		n = 64 << 20
	}
	return (n + 1<<20 - 1) &^ (1<<20 - 1)
}

// fillPattern writes a distinct pseudo-random pattern for chunk i, so no
// two pages of the store hold equal bytes.
func fillPattern(buf []byte, i int) {
	x := uint64(i)*0x9E3779B97F4A7C15 + 1
	for j := 0; j+8 <= len(buf); j += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for k := 0; k < 8; k++ {
			buf[j+k] = byte(x >> (8 * k))
		}
	}
}

// driveStore measures ByteStore.WriteAt then ReadAt over size bytes in
// 1 MiB requests, in MB/s over both directions, and checks the read back.
func driveStore(size int64) (float64, error) {
	const chunk = 1 << 20
	src := make([]byte, chunk)
	dst := make([]byte, chunk)
	s := pfs.NewByteStore()
	var busy time.Duration
	for i := 0; int64(i)*chunk < size; i++ {
		fillPattern(src, i)
		t0 := time.Now()
		s.WriteAt(src, int64(i)*chunk)
		busy += time.Since(t0)
	}
	for i := 0; int64(i)*chunk < size; i++ {
		t0 := time.Now()
		s.ReadAt(dst, int64(i)*chunk)
		busy += time.Since(t0)
		fillPattern(src, i)
		if !bytes.Equal(src, dst) {
			return 0, fmt.Errorf("pfs: ByteStore read back wrong bytes at MiB %d", i)
		}
	}
	return float64(2*size) / 1e6 / busy.Seconds(), nil
}
