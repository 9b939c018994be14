package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeRules(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"innermost repro package wins",
			[]string{"runtime.memmove", "repro/internal/pfs.(*ByteStore).WriteAt", "repro/internal/mpiio.(*File).WriteAtAll", "repro/internal/enzo.(*Sim).Run"},
			"pfs"},
		{"closure keeps its package",
			[]string{"repro/internal/compress.lzssEncode.func1", "repro/internal/enzo.(*Sim).squeeze"},
			"compress"},
		{"scheduler frame below the innermost repro frame is hand-off",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.chanrecv1", "repro/internal/sim.(*Engine).handoff", "repro/internal/mpi.(*Rank).Recv"},
			"go.handoff"},
		{"scheduler stack without repro frames is hand-off",
			[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
			"go.handoff"},
		{"scheduler frame above a repro frame does not count",
			[]string{"repro/internal/sim.(*Proc).Advance", "runtime.goexit"},
			"sim"},
		{"gc worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			"go.gc"},
		{"gc worker wins over a scheduler frame",
			[]string{"runtime.futex", "runtime.gcBgMarkWorker"},
			"go.gc"},
		{"allocation under a repro frame stays with the package",
			[]string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/amr.NewParticleSet"},
			"amr"},
		{"allocator lock wait under a repro frame stays with the package",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.lock2", "runtime.(*mheap).alloc", "runtime.mallocgc", "runtime.newobject", "repro/internal/pfs.(*ByteStore).grow"},
			"pfs"},
		{"runtime lock helper alone is not hand-off",
			[]string{"runtime.lock2", "runtime.(*mcentral).cacheSpan", "repro/internal/hdf5.(*File).write"},
			"hdf5"},
		{"other runtime work",
			[]string{"runtime.sysmon", "runtime.mstart1"},
			"go.other"},
		{"non-repro code",
			[]string{"main.main", "runtime.main"},
			"go.other"},
	}
	var samples []stackSample
	for i, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
		samples = append(samples, stackSample{Weight: int64(10 * (i + 1)), Frames: c.frames})
	}
	shares := cpuShares(samples)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	// go.handoff got cases 3 and 4: weights 30 and 40 of 780.
	if got, want := shares["go.handoff"], 70.0/780; math.Abs(got-want) > 1e-12 {
		t.Errorf("go.handoff share = %v, want %v", got, want)
	}
	if len(cpuShares(nil)) != 0 {
		t.Error("empty profile should give no shares")
	}
}

func TestReproPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Proc).Advance": "sim",
		"repro/internal/psort.Sort[...]":     "psort",
		"repro/internal/castore.KeyOf":       "castore",
		"repro/perfbench.helper":             "",
		"runtime.chanrecv":                   "",
	} {
		got, ok := reproPackage(fn)
		if got != want || ok != (want != "") {
			t.Errorf("reproPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

var sink uint64

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 300 ms busy profile")
	}
	for _, s := range samples {
		if s.Weight <= 0 || len(s.Frames) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
	}
	sum := 0.0
	for _, v := range cpuShares(samples) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input parsed without error")
	}
}
