package main

import (
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func testSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestMetricNames(t *testing.T) {
	sp := testSpec(t)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not of the form %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// TestWorkloadsMatchDeclaration checks that the program defines exactly
// the workloads BENCHMARK.json declares, in its order.
func TestWorkloadsMatchDeclaration(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program defines %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, sp.Workloads[i].Name, w.Name)
		}
	}
}

func TestPerLayerMetricsDeclareWhatTheyMove(t *testing.T) {
	sp := testSpec(t)
	e2e := map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.Name] = true
	}
	declared := map[string]bool{}
	for _, m := range sp.PerLayer {
		declared[m.Name] = true
		e, ok := effects[m.Name]
		switch {
		case !ok:
			t.Errorf("%s declares no end-to-end metric it moves", m.Name)
			continue
		case e.Moves == "none":
			// Only tracing's own cost moves no end-to-end metric, because
			// the end-to-end metrics are measured untraced.
			if !strings.HasPrefix(m.Name, "obs.") {
				t.Errorf("%s moves no end-to-end metric", m.Name)
			}
		case !e2e[e.Moves]:
			t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, e.Moves)
		}
		if len(e.On) == 0 {
			t.Errorf("%s names no workload", m.Name)
		}
		for _, w := range e.On {
			if !known[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
	for name := range effects {
		if !declared[name] {
			t.Errorf("effect given for %s, which BENCHMARK.json does not declare", name)
		}
	}
}
