package avd_test

// Riding a train changes nothing but the queue's work (ISSUE 18,
// DESIGN.md §2): with sim.SetSplitTrains on, every delivery gets a queue
// node of its own, as before trains existed, and every observable of a
// run — oracle-event stream, Result, report, a whole campaign's results
// — must be what it is with trains forming. internal/sim's differential
// test argues the same from the engine's side; this is the end-to-end
// half, through both shipped targets.

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/slab"
)

// splitAndMerged runs f once with every delivery travelling alone and
// once with trains forming.
func splitAndMerged[T any](f func() T) (split, merged T) {
	sim.SetSplitTrains(true)
	split = f()
	sim.SetSplitTrains(false)
	return split, f()
}

// tracedRun is everything RunTraced reports about one execution.
type tracedRun struct {
	Result core.Result
	Report any
	Trace  []oracle.Event
}

// coldAndTenthFork runs sc cold and then through ten forks of its master,
// and returns the cold run and the last fork.
func coldAndTenthFork[R any](cold, fork func(scenario.Scenario) (core.Result, R, []oracle.Event), sc scenario.Scenario) []tracedRun {
	res, rep, trace := cold(sc)
	runs := []tracedRun{{res, rep, trace}}
	for i := 0; i < 10; i++ {
		res, rep, trace = fork(sc)
	}
	return append(runs, tracedRun{res, rep, trace})
}

// TestTrainsNeutralTracedRuns: the cold run and the tenth fork of every
// fork-determinism scenario, on a poisoned pool, produce the same event
// stream, Result and report either way.
func TestTrainsNeutralTracedRuns(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)

	pbftRuns := func() (runs []tracedRun) {
		r, err := cluster.NewRunner(pbftForkWorkload())
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range pbftForkScenarios(t) {
			runs = append(runs, coldAndTenthFork(r.RunTraced, r.RunTracedFork, sc)...)
		}
		return runs
	}
	raftRuns := func() (runs []tracedRun) {
		w := raftsim.DefaultWorkload()
		w.Warmup = 300 * time.Millisecond
		w.Measure = 800 * time.Millisecond
		r, err := raftsim.NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
		if err != nil {
			t.Fatal(err)
		}
		for _, point := range []map[string]int64{
			{raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200},
			{raftsim.DimClients: 25, raftsim.DimFlapIntervalMS: 0, raftsim.DimFlapDownMS: 0},
		} {
			runs = append(runs, coldAndTenthFork(r.RunTraced, r.RunTracedFork, space.New(point))...)
		}
		return runs
	}
	for name, f := range map[string]func() []tracedRun{"pbft": pbftRuns, "raft": raftRuns} {
		split, merged := splitAndMerged(f)
		for i := range split {
			if len(merged[i].Trace) == 0 {
				t.Fatalf("%s run %d traced no events", name, i)
			}
			assertSameRun(t, name, split[i].Result, merged[i].Result, split[i].Trace, merged[i].Trace)
			if !reflect.DeepEqual(split[i].Report, merged[i].Report) {
				t.Errorf("%s run %d: report differs:\nsplit:  %+v\nmerged: %+v", name, i, split[i].Report, merged[i].Report)
			}
		}
	}
}

// TestTrainsNeutralFaultCampaigns: thirty coverage-guided tests with
// every v2 fault armed — crashes, skewed clocks, one-way partitions,
// corrupted and duplicated messages, and on raft the ack storms that run
// into the step budget, so windows end inside a train — come back result
// for result the same either way. The budget is a third of CI's 300,000
// events to keep the raft storms cheap; raftsim's
// TestStormHungSameWithSplitTrains runs one at the full figure.
func TestTrainsNeutralFaultCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 30-test campaigns")
	}
	for _, target := range []string{"pbft", "raft"} {
		split, merged := splitAndMerged(func() []core.Result {
			setup, err := campaign.Build(campaign.Config{
				Target: target, Strategy: "coverage", Faults: "crash,skew,oneway,corrupt,dup", Tests: 30, Seed: 1,
				Measure: 500 * time.Millisecond, StepBudget: 100_000, Workers: 1, Shards: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(30))
			if err != nil {
				t.Fatal(err)
			}
			results, err := eng.RunAll(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			return results
		})
		if len(merged) != 30 {
			t.Fatalf("%s campaign finished %d of 30 tests", target, len(merged))
		}
		hung := 0
		for i := range merged {
			if merged[i].Hung {
				hung++
			}
			if !reflect.DeepEqual(split[i], merged[i]) {
				t.Fatalf("%s test %d differs:\nsplit:  %+v\nmerged: %+v", target, i+1, split[i], merged[i])
			}
		}
		if target == "raft" && hung == 0 {
			t.Error("no raft test ran into the step budget; the mid-train case was not exercised")
		}
	}
}
