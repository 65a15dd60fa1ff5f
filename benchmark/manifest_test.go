package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the root repeats what metrics.go and workloads.go
// declare; this holds the two in step and inside the driver's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") {
				t.Errorf("%s: bad unit %q or direction %q", d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in code, limit 0.25", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)

	var setup *metricDef
	for i := range endToEnd {
		if endToEnd[i].name == "setup_s" {
			setup = &endToEnd[i]
		}
		if endToEnd[i].bound > 0.25 {
			t.Errorf("%s: bound above 0.25", endToEnd[i].name)
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("end_to_end needs setup_s in s, lower is better")
	} else {
		for _, d := range endToEnd {
			if d.bound > setup.bound {
				t.Errorf("%s has a larger bound than setup_s", d.name)
			}
		}
	}
}
