package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/enzo"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// runRecord is one RunOnce call as a child process saw it.
type runRecord struct {
	WallS    float64     `json:"wall_s"`
	Err      string      `json:"err,omitempty"`
	Verified bool        `json:"verified"`
	IOTimeS  float64     `json:"io_time_s"`
	FP       fingerprint `json:"fingerprint"`
	// Runtime allocation counters over the run.
	AllocBytes float64 `json:"alloc_bytes"`
	Allocs     float64 `json:"allocs"`
	GCCycles   float64 `json:"gc_cycles"`
}

// childReport is what a child process prints on standard output.
type childReport struct {
	SetupS float64            `json:"setup_s,omitempty"` // setup child only
	Runs   []runRecord        `json:"runs"`
	RSSMiB float64            `json:"rss_mib"`
	Shares map[string]float64 `json:"shares,omitempty"` // traced child only
	Spans  map[string]float64 `json:"spans,omitempty"`  // traced child only
}

var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() []float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		out[i] = float64(s[i].Value.Uint64())
	}
	return out
}

// runInstance performs one RunOnce of w with Config.Seed = seed. A non-nil
// tracer attaches obs to the whole stack. The identity wrapper only hands
// out the file system so that its whole-run counters can be read.
func runInstance(w Workload, seed int64, tr *obs.Tracer) runRecord {
	var fs pfs.FileSystem
	keep := func(f pfs.FileSystem) pfs.FileSystem { fs = f; return f }
	c0 := readCounters()
	t0 := time.Now()
	var res *enzo.Result
	var err error
	if tr == nil {
		res, err = enzo.RunOnceWrapped(w.Mach, w.FS, w.NP, w.config(seed), w.Backend, keep)
	} else {
		res, err = enzo.RunOnceWrappedTraced(w.Mach, w.FS, w.NP, w.config(seed), w.Backend, keep, tr)
	}
	rec := runRecord{WallS: time.Since(t0).Seconds()}
	c1 := readCounters()
	rec.AllocBytes, rec.Allocs, rec.GCCycles = c1[0]-c0[0], c1[1]-c0[1], c1[2]-c0[2]
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Verified = res.Verified
	rec.IOTimeS = res.IOTime()
	rec.FP = fingerprintOf(res, fs.Stats())
	return rec
}

// runChild is the body of a child process. A setup child times one
// amr.BuildHierarchy of the problem instance; a run child runs it untraced
// runs times; a traced child runs it once under CPU profiling.
func runChild(w Workload, seed int64, runs int, role string) (childReport, error) {
	var rep childReport
	switch role {
	case "setup":
		t0 := time.Now()
		w.buildHierarchy(seed)
		rep.SetupS = time.Since(t0).Seconds()
	case "run":
		for i := 0; i < runs; i++ {
			rep.Runs = append(rep.Runs, runInstance(w, seed, nil))
		}
	case "traced":
		tr := obs.NewTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, fmt.Errorf("start cpu profile: %w", err)
		}
		rec := runInstance(w, seed, tr)
		pprof.StopCPUProfile()
		rep.Runs = append(rep.Runs, rec)
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return rep, fmt.Errorf("parse cpu profile: %w", err)
		}
		rep.Shares = cpuShares(samples)
		rep.Spans = spanCounts(tr)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return rep, err
	}
	rep.RSSMiB = rss
	return rep, nil
}

// spanLayers maps obs layers to the benchmark's layer names.
var spanLayers = map[obs.Layer]string{
	obs.LayerMPI:   "mpi",
	obs.LayerMPIIO: "mpiio",
	obs.LayerPFS:   "pfs",
	obs.LayerHDF:   "hdf5",
	obs.LayerCodec: "compress",
}

// spanCounts counts the traced run's spans per layer.
func spanCounts(tr *obs.Tracer) map[string]float64 {
	out := make(map[string]float64, len(spanLayers))
	for _, name := range spanLayers {
		out[name] = 0
	}
	for _, st := range tr.LayerStats() {
		if name, ok := spanLayers[st.Layer]; ok {
			out[name] += float64(st.Count)
		}
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
