package avd_test

// Riding a train changes nothing but the queue's work (ISSUE 18,
// DESIGN.md §2), and neither does re-arming a timer in place (ISSUE 19):
// with sim.SetSplitTrains on, every delivery gets a queue node of its
// own, as before trains existed; with sim.SetEagerResets on, every
// Engine.Reset is the Stop and the At it stands for; and every observable
// of a run — oracle-event stream, Result, report, a whole campaign's
// results — must be what it is as shipped. internal/sim's differential
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

// queueHooks are the engine's two test hooks and the targets whose queue
// traffic each can change. Both targets' clients re-arm their retry timer
// through Reset once per request, and raft's nodes their election and
// heartbeat timers, so eager resets put the Stop + At pair back everywhere.
var queueHooks = []struct {
	name    string
	set     func(bool)
	targets []string
}{
	{"split trains", sim.SetSplitTrains, []string{"pbft", "raft"}},
	{"eager resets", sim.SetEagerResets, []string{"pbft", "raft"}},
}

// hookedAndShipped runs f once with the hook on and once as shipped.
func hookedAndShipped[T any](set func(bool), f func() T) (hooked, shipped T) {
	set(true)
	hooked = f()
	set(false)
	return hooked, f()
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
	runs := map[string]func() []tracedRun{"pbft": pbftRuns, "raft": raftRuns}
	for _, hook := range queueHooks {
		for _, target := range hook.targets {
			name := target + ", " + hook.name
			hooked, shipped := hookedAndShipped(hook.set, runs[target])
			for i := range hooked {
				if len(shipped[i].Trace) == 0 {
					t.Fatalf("%s run %d traced no events", name, i)
				}
				assertSameRun(t, name, hooked[i].Result, shipped[i].Result, hooked[i].Trace, shipped[i].Trace)
				if !reflect.DeepEqual(hooked[i].Report, shipped[i].Report) {
					t.Errorf("%s run %d: report differs:\nhooked:  %+v\nshipped: %+v", name, i, hooked[i].Report, shipped[i].Report)
				}
			}
		}
	}
}

// TestTrainsNeutralFaultCampaigns: thirty coverage-guided tests with
// every v2 fault armed — crashes, skewed clocks, one-way partitions,
// corrupted and duplicated messages, and on raft the ack storms that run
// into the step budget, so windows end inside a train and with stale
// timer nodes queued — come back result for result the same either way. The budget is a third of CI's 300,000
// events to keep the raft storms cheap; raftsim's
// TestStormHungSameWithSplitTrains runs one at the full figure.
func TestTrainsNeutralFaultCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight 30-test campaigns")
	}
	for _, hook := range queueHooks {
		for _, target := range hook.targets {
			hooked, shipped := hookedAndShipped(hook.set, func() []core.Result {
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
			if len(shipped) != 30 {
				t.Fatalf("%s campaign finished %d of 30 tests", target, len(shipped))
			}
			hung := 0
			for i := range shipped {
				if shipped[i].Hung {
					hung++
				}
				if !reflect.DeepEqual(hooked[i], shipped[i]) {
					t.Fatalf("%s test %d differs with %s:\nhooked:  %+v\nshipped: %+v", target, i+1, hook.name, hooked[i], shipped[i])
				}
			}
			if target == "raft" && hung == 0 {
				t.Error("no raft test ran into the step budget; the mid-train case was not exercised")
			}
		}
	}
}
