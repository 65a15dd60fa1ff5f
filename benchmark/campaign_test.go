package main

import (
	"bytes"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/trace"
)

// small shrinks a workload to a campaign of a few short tests.
func small(t *testing.T, name string, tests int) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.cfg.Tests = tests
	w.cfg.Measure = 150 * time.Millisecond
	return w
}

func fingerprint(t *testing.T, results []core.Result) string {
	t.Helper()
	fp, err := core.FingerprintResults(results)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// A campaign run through the Target/Explorer decorators (and, for the
// durable case, the timed sink and heartbeat observer) must be the very
// campaign run without them, on both targets.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, c := range []struct {
		workload string
		tests    int
		durable  bool
	}{
		{"pbft-fig2", 14, false},
		{"raft-flap", 14, false},
		{"pbft-faults-coverage", 24, false},
		{"pbft-sharded-durable", 12, true},
	} {
		w := small(t, c.workload, c.tests)
		state := func() string {
			if c.durable {
				return t.TempDir()
			}
			return ""
		}
		bare, err := runShard(w, 0, state(), nil)
		if err != nil {
			t.Fatalf("%s bare: %v", c.workload, err)
		}
		tr := newTracer("test")
		traced, err := runShard(w, 0, state(), tr)
		if err != nil {
			t.Fatalf("%s traced: %v", c.workload, err)
		}
		if len(bare.results) != c.tests {
			t.Errorf("%s: %d results, want %d", c.workload, len(bare.results), c.tests)
		}
		if a, b := fingerprint(t, bare.results), fingerprint(t, traced.results); a != b {
			t.Errorf("%s: fingerprint %s through the decorators, %s without", c.workload, b, a)
		}
		if n := len(durationsMS(tr.spans, "harness.test")); n != c.tests {
			t.Errorf("%s: %d harness.test spans, want %d", c.workload, n, c.tests)
		}
		if n := len(durationsMS(tr.spans, "core.explorer.record")); n != c.tests {
			t.Errorf("%s: %d explorer.record spans, want %d", c.workload, n, c.tests)
		}
		if c.durable {
			if traced.appends != c.tests || traced.journalBytes == 0 {
				t.Errorf("%s: %d appends, %d journal bytes", c.workload, traced.appends, traced.journalBytes)
			}
			if n := len(durationsMS(tr.spans, spanAppend)); n != c.tests {
				t.Errorf("%s: %d append spans, want %d", c.workload, n, c.tests)
			}
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", c.workload, len(tr.open))
		}
	}
}

// The in-process mirror of a sharded run must merge to the same csv
// traced and untraced, with every shard's results in it.
func TestInProcessShardedMerge(t *testing.T) {
	w := small(t, "pbft-sharded-durable", 6)
	e := &env{work: t.TempDir()}
	bare, err := e.runInProcess(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := e.runInProcess(w, newTracer("test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.results) != w.tests() || len(bare.shards) != 2 {
		t.Fatalf("%d merged results from %d shards, want %d from 2", len(bare.results), len(bare.shards), w.tests())
	}
	if !bytes.Equal(bare.csv, traced.csv) {
		t.Error("traced and untraced merged csv differ")
	}
	var direct bytes.Buffer
	if err := trace.WriteCampaignCSV(&direct, w.cfg.Strategy, bare.results); err != nil {
		t.Fatal(err)
	}
	table, err := parseCSV(bare.csv)
	if err != nil || table.rows != w.tests() || table.failed != 0 || !bytes.Equal(direct.Bytes(), bare.csv) {
		t.Errorf("merged csv: %+v, %v", table, err)
	}
}

func TestPopulationsAndSetup(t *testing.T) {
	for name, want := range map[string]int{"pbft-fig2": 50, "raft-flap": 10, "pbft-faults-coverage": 50, "pbft-sharded-durable": 50} {
		w, _ := findWorkload(name)
		setup, err := campaign.Build(w.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pops, err := populations(setup.Space, w.popDims); err != nil || len(pops) != want {
			t.Errorf("%s: %d populations (%v), want %d", name, len(pops), err, want)
		}
	}
	// One real pass on the small target.
	w := small(t, "raft-flap", 1)
	w.setupPasses = 1
	if s, err := setupRepetition(w); err != nil || s <= 0 {
		t.Errorf("set-up %v s, %v", s, err)
	}
}
