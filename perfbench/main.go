// Command perfbench measures the simulator's own cost: host wall time,
// set-up time and peak memory per run, next to the modelled I/O seconds,
// on three workloads taken from the paper's platforms. With -trace 1 it
// instead reports per-layer metrics from a traced, CPU-profiled run and
// from drivers that time each layer's public functions.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fig9-local-hdf5 --seed 1789 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child process, so a hung run cannot outlive the
// benchmark's own 180 s limit.
const childTimeout = 150 * time.Second

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", defaultSeed, "workload seed: Config.Seed of the run's first problem instance")
	seconds := fl.Float64("seconds", 30, "time budget the run's instance panel is sized to")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run instead")
	role := fl.String("role", "", "internal: child process role (setup, run or traced)")
	runs := fl.Int("runs", 1, "internal: runs in a child process")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	switch *role {
	case "setup", "run", "traced":
		rep, err := runChild(w, *seed, *runs, *role)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rep)
	case "":
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var res result
	switch *trace {
	case 0:
		res, err = measure(w, *seed, *seconds, sp.EndToEnd, stdout)
	case 1:
		res, err = traceRun(w, *seed, sp.PerLayer, stdout)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawn runs this binary as a child process and decodes its report.
func spawn(w Workload, seed int64, role string, runs int) (childReport, error) {
	var rep childReport
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-role", role, "-runs", strconv.Itoa(runs))
	cmd.Stderr = os.Stderr
	// The child dies with this process, so no run outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s child (seed %d): %w", role, seed, err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("%s child (seed %d): decode report: %w", role, seed, err)
	}
	return rep, nil
}

// tally counts runs and failures. A run fails when it returns an error,
// when its restart state does not verify, or when its fingerprint differs
// from the first run of the same problem instance.
type tally struct {
	attempted, failed int
	first             map[int64]fingerprint
	out               io.Writer
}

func (t *tally) check(seed int64, label string, rec runRecord) bool {
	t.attempted++
	why := ""
	switch {
	case rec.Err != "":
		why = "error: " + rec.Err
	case !rec.Verified:
		why = "restart state did not verify"
	default:
		if want, ok := t.first[seed]; ok {
			if d := want.diff(rec.FP); d != "" {
				why = "fingerprint differs from the first run: " + d
			}
		} else {
			t.first[seed] = rec.FP
		}
	}
	if why == "" {
		return true
	}
	t.failed++
	fmt.Fprintf(t.out, "FAIL %s seed %d: %s\n", label, seed, why)
	return false
}

// measure is the untraced run. For each problem instance, setupPerInstance
// fresh child processes each time one amr.BuildHierarchy, then one more
// runs one RunOnce. Interleaving the set-up samples with the runs spreads
// them over the whole run, so a slow minute of a shared host weighs on
// them no more than on the runs. A last child runs instance 0 again,
// outside the medians, and must reproduce its fingerprint exactly.
func measure(w Workload, seed int64, seconds float64, decl []metric, out io.Writer) (result, error) {
	k := w.panelSize(seconds)
	t := tally{first: map[int64]fingerprint{}, out: out}
	var setup, walls, rss, vio []float64
	fmt.Fprintf(out, "workload %s seed %d: %d problem instances (Config.Seed = seed + i*%d), one fresh process each, closed loop, 1 client\n",
		w.Name, seed, k, instanceStride)
	for i := 0; i < k; i++ {
		s := instanceSeed(seed, i)
		for j := 0; j < setupPerInstance; j++ {
			rep, err := spawn(w, s, "setup", 1)
			if err != nil {
				return result{}, err
			}
			setup = append(setup, rep.SetupS)
		}
		rep, err := spawn(w, s, "run", 1)
		if err != nil {
			t.check(s, "run", runRecord{Err: err.Error()})
			continue
		}
		r := rep.Runs[0]
		if t.check(s, "run", r) {
			walls = append(walls, r.WallS)
			vio = append(vio, r.IOTimeS)
		}
		rss = append(rss, rep.RSSMiB)
		fmt.Fprintf(out, "  instance %d (Config.Seed %d): wall %.4f s, virtual I/O %.4f s, VmHWM %.1f MiB, %.0f events\n",
			i, s, r.WallS, r.IOTimeS, rep.RSSMiB, r.FP.value("events"))
	}
	rep, err := spawn(w, seed, "run", 1)
	if err != nil {
		rep.Runs = []runRecord{{Err: err.Error()}}
	}
	t.check(seed, "repeat run", rep.Runs[0])
	if len(walls) == 0 {
		return result{}, errors.New("no run succeeded")
	}
	m := map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      median(setup),
		"peak_rss_mb":  median(rss),
		"virtual_io_s": mean(vio),
	}
	fmt.Fprintf(out, "  wall_s       %.4f s   median of %d runs (min %.4f, max %.4f)\n", m["wall_s"], len(walls), slices.Min(walls), slices.Max(walls))
	fmt.Fprintf(out, "  setup_s      %.4f s   median of %d amr.BuildHierarchy calls, one per fresh process (min %.4f, max %.4f)\n",
		m["setup_s"], len(setup), slices.Min(setup), slices.Max(setup))
	fmt.Fprintf(out, "  peak_rss_mb  %.1f MiB  median VmHWM of %d processes\n", m["peak_rss_mb"], len(rss))
	fmt.Fprintf(out, "  virtual_io_s %.4f s   mean modelled read+write+restart of %d runs\n", m["virtual_io_s"], len(vio))
	fmt.Fprintf(out, "  fail_frac    %g       (%d failed of %d attempted; instance 0 re-run in a fresh process for the fingerprint check)\n",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return finish(t, decl, m)
}

// finish builds the result from the tally and the declared metrics, all of
// which m must hold.
func finish(t tally, decl []metric, m map[string]float64) (result, error) {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range decl {
		v, ok := m[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// traceRun reports the per-layer metrics of problem instance 0: an
// untraced child (a cold run, then a warm one), a traced child under CPU
// profiling, then the layer drivers in this process.
func traceRun(w Workload, seed int64, decl []metric, out io.Writer) (result, error) {
	t := tally{first: map[int64]fingerprint{}, out: out}
	plain, err := spawn(w, seed, "run", 2)
	if err != nil {
		plain.Runs = []runRecord{{Err: err.Error()}, {Err: err.Error()}}
	}
	traced, err := spawn(w, seed, "traced", 1)
	if err != nil {
		traced.Runs = []runRecord{{Err: err.Error()}}
	}
	t.check(seed, "cold run", plain.Runs[0])
	t.check(seed, "warm run", plain.Runs[1])
	t.check(seed, "traced run", traced.Runs[0])
	if t.failed > 0 {
		return finish(t, nil, nil)
	}
	cold, warm, tr := plain.Runs[0], plain.Runs[1], traced.Runs[0]
	m := map[string]float64{
		"sim.events":           warm.FP.value("events"),
		"sim.ns_per_event":     warm.WallS * 1e9 / warm.FP.value("events"),
		"pfs.bytes_read":       warm.FP.value("pfs.bytes_read"),
		"pfs.bytes_written":    warm.FP.value("pfs.bytes_written"),
		"pfs.read_reqs":        warm.FP.value("pfs.read_reqs"),
		"pfs.write_reqs":       warm.FP.value("pfs.write_reqs"),
		"castore.chunk_puts":   warm.FP.value("cas_chunk_puts"),
		"castore.chunk_hits":   warm.FP.value("cas_chunk_hits"),
		"castore.dedup_frac":   ratio(warm.FP.value("cas_deduped_bytes"), warm.FP.value("cas_logical_bytes")),
		"enzo.footprint_ratio": plain.RSSMiB / (float64(w.config(seed).EstimateFootprint(w.NP)) / (1 << 20)),
		"enzo.vt_read_s":       warm.FP.value("phase.read"),
		"enzo.vt_write_s":      warm.FP.value("phase.write"),
		"enzo.vt_restart_s":    warm.FP.value("phase.restart"),
		"enzo.vt_makespan_s":   warm.FP.value("makespan"),
		"go.alloc_mb":          warm.AllocBytes / 1e6,
		"go.allocs":            warm.Allocs,
		"go.gc_cycles":         warm.GCCycles,
		"obs.trace_overhead":   tr.WallS/cold.WallS - 1,
		"obs.trace_rss_mb":     traced.RSSMiB,
	}
	for _, l := range []string{"sim", "mpi", "mpiio", "pfs", "hdf5", "compress", "castore", "amr", "enzo"} {
		m[l+".cpu_share"] = traced.Shares[l]
	}
	m["go.handoff_share"] = traced.Shares["go.handoff"]
	m["go.gc_share"] = traced.Shares["go.gc"]
	for l, n := range traced.Spans {
		m[l+".spans"] = n
	}
	fmt.Fprintf(out, "workload %s seed %d: traced run of problem instance 0 (Config.Seed = %d)\n", w.Name, seed, seed)
	fmt.Fprintf(out, "  untraced cold %.4f s, warm %.4f s, traced %.4f s; fingerprints identical\n", cold.WallS, warm.WallS, tr.WallS)
	if err := runDrivers(w, seed, m, out); err != nil {
		t.attempted++
		t.failed++
		fmt.Fprintf(out, "FAIL layer driver: %v\n", err)
		return finish(t, nil, nil)
	}
	for _, d := range decl {
		fmt.Fprintf(out, "  %-22s %-14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	return finish(t, decl, m)
}

// mean is the panel average of a metric that is exact per problem
// instance. It has no host noise to be robust against, and across
// instances the mean varies less than the median.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runDrivers fills in the metrics of the per-layer drivers.
func runDrivers(w Workload, seed int64, m map[string]float64, out io.Writer) error {
	h := w.buildHierarchy(seed)
	var err error
	if m["sim.handoff_ns"], err = driveHandoff(w.NP); err != nil {
		return fmt.Errorf("sim handoff: %w", err)
	}
	if m["mpi.allgather_us"], m["mpi.allgather_events"], m["mpi.allgather_msgs"], err = driveAllgather(w.NP, w.Mach); err != nil {
		return fmt.Errorf("mpi allgather: %w", err)
	}
	if m["mpiio.read_all_ms"], m["mpiio.write_all_ms"], err = driveMPIIO(w, h); err != nil {
		return fmt.Errorf("mpiio collectives: %w", err)
	}
	if m["hdf5.dump_ms"], err = driveHDF5(w, h); err != nil {
		return fmt.Errorf("hdf5 dump: %w", err)
	}
	data := bytes.Join(h.Root().Fields, nil)
	if m["compress.pack_mbps"], m["compress.unpack_mbps"], m["compress.ratio"], err = driveCompress(w, data); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if m["castore.split_mbps"], err = driveSplit(data); err != nil {
		return fmt.Errorf("castore split: %w", err)
	}
	fmt.Fprintf(out, "  drivers: np=%d on %s/%s; codec %s on %d MiB of root fields",
		w.NP, w.Mach.Name, w.FS, driverCodec(w), len(data)>>20)
	h, data = nil, nil // release before the ByteStore working set
	size := storeBytes()
	if m["pfs.store_mbps"], err = driveStore(size); err != nil {
		return fmt.Errorf("pfs store: %w", err)
	}
	fmt.Fprintf(out, "; ByteStore %d MiB (4x LLC %d MiB)\n", size>>20, llcBytes()>>20)
	return nil
}
