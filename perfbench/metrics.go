package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark's declaration, read from the repository root
// (the directory the benchmark runs in). It is the one source of the
// workload names and of each metric's name, unit, direction and bound.
const specFile = "BENCHMARK.json"

// metric is one metric as BENCHMARK.json declares it. Per-layer metrics
// carry no bound.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program uses.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark declaration: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// effect names the end-to-end metric a per-layer metric should move and
// the workloads where it matters.
type effect struct {
	Moves string   // an end-to-end metric name, or "none"
	On    []string // workload names
}

const (
	fig9  = "fig9-local-hdf5"
	scale = "scale-pvfs-np64"
	codec = "codec-cas-xfs"
)

var allWorkloads = []string{fig9, scale, codec}

func wall(on ...string) effect { return effect{Moves: "wall_s", On: on} }

// effects holds, for every per-layer metric in BENCHMARK.json, what it
// should move.
var effects = map[string]effect{
	"sim.events":           wall(scale),
	"sim.ns_per_event":     wall(scale, fig9),
	"sim.handoff_ns":       wall(scale),
	"go.handoff_share":     wall(scale, fig9),
	"mpi.allgather_us":     wall(scale),
	"mpi.allgather_events": wall(scale),
	"mpi.allgather_msgs":   wall(scale),
	"mpiio.read_all_ms":    wall(scale),
	"mpiio.write_all_ms":   wall(scale),
	"pfs.bytes_read":       {Moves: "peak_rss_mb", On: []string{fig9}},
	"pfs.bytes_written":    {Moves: "peak_rss_mb", On: []string{fig9}},
	"pfs.read_reqs":        wall(fig9),
	"pfs.write_reqs":       wall(fig9),
	"pfs.store_mbps":       wall(fig9),
	"hdf5.dump_ms":         wall(fig9, codec),
	"compress.pack_mbps":   wall(codec),
	"compress.unpack_mbps": wall(codec),
	"compress.ratio":       wall(codec),
	"castore.split_mbps":   wall(codec),
	"castore.chunk_puts":   wall(codec),
	"castore.chunk_hits":   {Moves: "virtual_io_s", On: []string{codec}},
	"castore.dedup_frac":   {Moves: "virtual_io_s", On: []string{codec}},
	"enzo.footprint_ratio": {Moves: "peak_rss_mb", On: []string{fig9}},
	"enzo.vt_read_s":       {Moves: "virtual_io_s", On: allWorkloads},
	"enzo.vt_write_s":      {Moves: "virtual_io_s", On: allWorkloads},
	"enzo.vt_restart_s":    {Moves: "virtual_io_s", On: allWorkloads},
	"enzo.vt_makespan_s":   {Moves: "virtual_io_s", On: allWorkloads},
	"sim.cpu_share":        wall(scale),
	"mpi.cpu_share":        wall(scale),
	"mpiio.cpu_share":      wall(scale),
	"pfs.cpu_share":        wall(fig9),
	"hdf5.cpu_share":       wall(fig9),
	"compress.cpu_share":   wall(codec),
	"castore.cpu_share":    wall(codec),
	"amr.cpu_share":        wall(fig9),
	"enzo.cpu_share":       wall(fig9),
	"go.gc_share":          wall(fig9),
	"mpi.spans":            wall(scale),
	"mpiio.spans":          wall(scale),
	"pfs.spans":            wall(fig9),
	"hdf5.spans":           wall(fig9),
	"compress.spans":       wall(codec),
	"go.alloc_mb":          {Moves: "peak_rss_mb", On: []string{fig9}},
	"go.allocs":            wall(fig9),
	"go.gc_cycles":         wall(fig9),
	"obs.trace_overhead":   {Moves: "none", On: allWorkloads},
	"obs.trace_rss_mb":     {Moves: "none", On: allWorkloads},
}
