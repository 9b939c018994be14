package main

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/enzo"
	"repro/internal/machine"
)

// defaultSeed is the paper problem's own seed (enzo.AMR64().Seed).
const defaultSeed = 1789

// instanceStride separates the Config.Seed values of one run's problem
// instances, so that the instance sets of two nearby --seed values do not
// overlap.
const instanceStride = 1 << 20

// Workload is one named benchmark configuration: a problem, a platform, a
// file system, an I/O backend and a rank count.
type Workload struct {
	Name    string
	Cfg     enzo.Config
	Mach    machine.Config
	FS      string
	Backend enzo.Backend
	NP      int
	// InstanceSeconds is the reference-box wall of one fresh-process run,
	// process start included. It sizes a run's instance panel to the
	// --seconds budget.
	InstanceSeconds float64
	// MinPanel is the fewest problem instances a run measures. Instances
	// differ: across seeds one instance's wall and modelled I/O time spread
	// by 20% or more, so a workload whose instances are slow overruns the
	// time budget rather than take the median of fewer.
	MinPanel int
}

func amr256Quick() enzo.Config {
	c := enzo.AMR256()
	c.Dims = [3]int{64, 64, 64}
	c.NParticles = 64 * 64 * 64 / 2
	return c
}

func codecCAS() enzo.Config {
	c := enzo.AMR64()
	c.Codec = "lzss"
	c.CAStore = true
	c.Dumps = 3
	c.Generations = 2
	return c
}

// workloads are the declared benchmark workloads, in BENCHMARK.json order.
var workloads = []Workload{
	{
		Name: "fig9-local-hdf5",
		Cfg:  enzo.AMR64(), Mach: machine.ChibaCity(), FS: "local", Backend: enzo.BackendHDF5, NP: 8,
		InstanceSeconds: 2.65, MinPanel: 5,
	},
	{
		Name: "scale-pvfs-np64",
		Cfg:  amr256Quick(), Mach: machine.Cluster1024(), FS: "pvfs", Backend: enzo.BackendMPIIO, NP: 64,
		// Six, not five: one scale instance's modelled I/O time varies by
		// about 22% (sd over mean) across seeds, the most of the three.
		InstanceSeconds: 9.4, MinPanel: 6,
	},
	{
		Name: "codec-cas-xfs",
		Cfg:  codecCAS(), Mach: machine.Origin2000(), FS: "xfs", Backend: enzo.BackendHDF5, NP: 8,
		InstanceSeconds: 3.75, MinPanel: 5,
	},
}

// lookupWorkload returns the named workload after checking that its rank
// count fits its machine.
func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, w.check()
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// check rejects a workload whose rank count exceeds its machine, which the
// machine model would otherwise report as a panic deep inside a run.
func (w Workload) check() error {
	if max := w.Mach.Nodes * w.Mach.ProcsPerNode; w.NP < 1 || w.NP > max {
		return fmt.Errorf("workload %s: np=%d does not fit %s (%d nodes x %d procs per node)",
			w.Name, w.NP, w.Mach.Name, w.Mach.Nodes, w.Mach.ProcsPerNode)
	}
	return nil
}

// instanceSeed is the Config.Seed of the i-th problem instance of a run
// with benchmark seed seed. Instance 0 is the seed itself.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*instanceStride }

// setupPerInstance is the number of set-up samples a run takes per
// problem instance. One fresh-process build of the same problem varies by
// about ±20% on a shared host, so a run needs many.
const setupPerInstance = 2

// setupSeconds is the reference-box wall of one setup child process.
const setupSeconds = 0.4

// panelSize is the number of problem instances a run measures: as many as
// fit the time budget on the reference box, and at least MinPanel. Each
// instance costs its setup children and a run child; the repeat run of
// instance 0 costs one more run child.
func (w Workload) panelSize(seconds float64) int {
	per := w.InstanceSeconds + setupPerInstance*setupSeconds
	return max(w.MinPanel, int((seconds-w.InstanceSeconds)/per+0.5))
}

// config returns the workload's problem with Config.Seed set.
func (w Workload) config(seed int64) enzo.Config {
	c := w.Cfg
	c.Seed = seed
	return c
}

// buildHierarchy builds the workload's initial conditions the way every
// fresh simulator process does before its first event.
func (w Workload) buildHierarchy(seed int64) *amr.Hierarchy {
	c := w.config(seed)
	return amr.BuildHierarchy(c.Dims, c.NParticles, c.PreRefine, c.Threshold, c.Seed)
}
