package main

import (
	"strings"
	"testing"

	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/pfs"
)

func TestWorkloadsFitTheirMachines(t *testing.T) {
	for _, w := range workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// The chiba np=64 shape that panics inside a run must fail the check.
	bad := workloads[0]
	bad.Mach, bad.NP = machine.ChibaCity(), 64
	if err := bad.check(); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("np=64 on chiba: check() = %v, want a does-not-fit error", err)
	}
	if _, err := lookupWorkload("no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadsRunShrunk runs every workload at enzo.Tiny() dims through
// to a verified restart, and checks that two runs agree exactly.
func TestWorkloadsRunShrunk(t *testing.T) {
	tiny := enzo.Tiny()
	for _, w := range workloads {
		w.Cfg.Dims, w.Cfg.NParticles = tiny.Dims, tiny.NParticles
		t.Run(w.Name, func(t *testing.T) {
			a := runInstance(w, defaultSeed, nil)
			if a.Err != "" || !a.Verified {
				t.Fatalf("run: err=%q verified=%v", a.Err, a.Verified)
			}
			b := runInstance(w, defaultSeed, nil)
			if d := a.FP.diff(b.FP); d != "" {
				t.Fatalf("second run differs: %s", d)
			}
		})
	}
}

func TestFingerprintDiffNamesTheField(t *testing.T) {
	res := &enzo.Result{Events: 10, Makespan: 1.5, Phases: []enzo.Phase{{Name: "read", Seconds: 2}}}
	a := fingerprintOf(res, pfs.Stats{ReadReqs: 3})
	res.Phases[0].Seconds = 2.5
	b := fingerprintOf(res, pfs.Stats{ReadReqs: 3})
	if d := a.diff(a); d != "" {
		t.Errorf("identical fingerprints differ: %s", d)
	}
	if d := a.diff(b); !strings.HasPrefix(d, "phase.read:") {
		t.Errorf("diff = %q, want it to name phase.read", d)
	}
	if d := a.diff(b[:2]); !strings.Contains(d, "missing") {
		t.Errorf("diff of a short fingerprint = %q", d)
	}
}

func TestPanelSize(t *testing.T) {
	// An instance costs 3 s plus two 0.4 s setup children; the repeat run
	// costs 3 s.
	w := Workload{InstanceSeconds: 3, MinPanel: 5}
	for seconds, want := range map[float64]int{30: 7, 31: 7, 32: 8, 6: 5, 0.5: 5} {
		if got := w.panelSize(seconds); got != want {
			t.Errorf("panelSize(%v) with 3 s instances = %d, want %d", seconds, got, want)
		}
	}
}
