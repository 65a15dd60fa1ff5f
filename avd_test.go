package avd_test

import (
	"context"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

// funcTarget serves a RunnerFunc through the Target seam an Engine
// drives.
type funcTarget struct{ core.RunnerFunc }

func (funcTarget) Name() string           { return "func" }
func (funcTarget) Plugins() []core.Plugin { return nil }

// runCampaign drives ex against target on an Engine with the given
// workers and returns its results.
func runCampaign(tb testing.TB, target core.Target, ex core.Explorer, budget, workers int) []core.Result {
	tb.Helper()
	eng, err := core.NewEngine(target, core.WithExplorer(ex), core.WithBudget(budget), core.WithWorkers(workers))
	if err != nil {
		tb.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// TestPublicAPIEndToEnd drives the engine API the way cmd/avd does:
// build a runner, compose plugins, run a short campaign, inspect results.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := cluster.DefaultWorkload()
	w.Measure = 500 * time.Millisecond
	runner, err := cluster.NewRunner(w)
	if err != nil {
		t.Fatalf("cluster.NewRunner: %v", err)
	}
	ctrl, err := core.NewController(core.ControllerConfig{Seed: 1, SeedTests: 4},
		plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		t.Fatalf("core.NewController: %v", err)
	}
	results := runCampaign(t, runner, ctrl, 8, 1)
	if len(results) != 8 {
		t.Fatalf("campaign ran %d tests, want 8", len(results))
	}
	for _, r := range results {
		if !r.Scenario.Valid() {
			t.Fatal("result with invalid scenario")
		}
		if r.BaselineThroughput <= 0 {
			t.Fatal("result without baseline")
		}
	}
	best := core.BestSoFar(results)
	if len(best) != len(results) {
		t.Fatal("BestSoFar length mismatch")
	}
}

// TestPublicAPISpaceSize checks the paper hyperspace core.Space composes
// from the MAC-corruption and deployment-shape plugins.
func TestPublicAPISpaceSize(t *testing.T) {
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() != 204800 {
		t.Errorf("space size = %d, want 204800", space.Size())
	}
}

// TestPublicAPIExplorers checks the baseline explorers on an Engine.
func TestPublicAPIExplorers(t *testing.T) {
	space, err := scenario.NewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 9, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	runner := funcTarget{func(sc scenario.Scenario) core.Result {
		return core.Result{Scenario: sc, Impact: float64(sc.GetOr("x", 0)) / 9}
	}}
	random := runCampaign(t, runner, core.NewRandomExplorer(space, 1), 5, 1)
	if len(random) != 5 {
		t.Errorf("random campaign ran %d tests", len(random))
	}
	exhaustive := runCampaign(t, runner, core.NewExhaustiveExplorer(space), 100, 1)
	if len(exhaustive) != 10 {
		t.Errorf("exhaustive campaign ran %d tests, want all 10", len(exhaustive))
	}
	if n := core.TestsToImpact(exhaustive, 1.0); n != 10 {
		t.Errorf("TestsToImpact = %d, want 10", n)
	}
}

// TestPublicAPIParallelCampaign pins the parallel-engine determinism
// contract against the real PBFT runner: one worker reproduces the
// paper's serial loop (cold runs, fed back one at a time) exactly, and a
// multi-worker run reproduces itself.
func TestPublicAPIParallelCampaign(t *testing.T) {
	w := cluster.DefaultWorkload()
	w.Measure = 300 * time.Millisecond
	newRunner := func() *cluster.Runner {
		runner, err := cluster.NewRunner(w)
		if err != nil {
			t.Fatalf("cluster.NewRunner: %v", err)
		}
		return runner
	}
	newCtrl := func() *core.Controller {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: 3, SeedTests: 4},
			plugin.NewMACCorrupt(), plugin.NewClients())
		if err != nil {
			t.Fatalf("core.NewController: %v", err)
		}
		return ctrl
	}
	same := func(label string, x, y []core.Result) {
		t.Helper()
		if len(x) != 8 || len(y) != 8 {
			t.Fatalf("%s: ran %d and %d tests, want 8", label, len(x), len(y))
		}
		for i := range x {
			if x[i].Scenario.Key() != y[i].Scenario.Key() || x[i].Impact != y[i].Impact {
				t.Fatalf("%s: diverged at test %d: %s (%v) vs %s (%v)", label, i,
					x[i].Scenario.Key(), x[i].Impact, y[i].Scenario.Key(), y[i].Impact)
			}
		}
	}

	var serial []core.Result
	ctrl, runner := newCtrl(), newRunner()
	for len(serial) < 8 {
		sc, _, ok := ctrl.Next()
		if !ok {
			break
		}
		res := runner.Run(sc)
		ctrl.Record(res)
		serial = append(serial, res)
	}
	same("workers=1 vs the serial loop", serial, runCampaign(t, newRunner(), newCtrl(), 8, 1))
	same("workers=4 across runs", runCampaign(t, newRunner(), newCtrl(), 8, 4), runCampaign(t, newRunner(), newCtrl(), 8, 4))
}

// TestPublicAPISweep checks parallel exhaustive sweeps on an Engine:
// eight workers, results in grid order.
func TestPublicAPISweep(t *testing.T) {
	space, err := scenario.NewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 31, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	runner := funcTarget{func(sc scenario.Scenario) core.Result {
		return core.Result{Scenario: sc, Impact: 0.5}
	}}
	results := runCampaign(t, runner, core.NewExhaustiveExplorer(space), 100, 8)
	if len(results) != 32 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for i, r := range results {
		if r.Scenario.GetOr("x", -1) != int64(i) || r.Generator != "exhaustive" {
			t.Fatalf("sweep result %d is %s (%s)", i, r.Scenario.Key(), r.Generator)
		}
	}
}
