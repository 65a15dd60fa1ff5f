package avd_test

import (
	"context"
	"testing"
	"time"

	"avd"
)

// funcTarget serves a RunnerFunc through the Target seam an Engine
// drives.
type funcTarget struct{ avd.RunnerFunc }

func (funcTarget) Name() string          { return "func" }
func (funcTarget) Plugins() []avd.Plugin { return nil }

// runCampaign drives ex against target on an Engine with the given
// workers and returns its results.
func runCampaign(tb testing.TB, target avd.Target, ex avd.Explorer, budget, workers int) []avd.Result {
	tb.Helper()
	eng, err := avd.NewEngine(target, avd.WithExplorer(ex), avd.WithBudget(budget), avd.WithWorkers(workers))
	if err != nil {
		tb.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: build a runner, compose plugins, run a short campaign, inspect
// results.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := avd.DefaultWorkload()
	w.Measure = 500 * time.Millisecond
	runner, err := avd.NewPBFTRunner(w)
	if err != nil {
		t.Fatalf("NewPBFTRunner: %v", err)
	}
	ctrl, err := avd.NewController(avd.ControllerConfig{Seed: 1, SeedTests: 4},
		avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatalf("NewController: %v", err)
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
	best := avd.BestSoFar(results)
	if len(best) != len(results) {
		t.Fatal("BestSoFar length mismatch")
	}
}

// TestPublicAPISpaceSize checks that the composed paper hyperspace is
// exposed correctly through the facade.
func TestPublicAPISpaceSize(t *testing.T) {
	space, err := avd.SpaceOf(avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() != 204800 {
		t.Errorf("space size = %d, want 204800", space.Size())
	}
}

// TestPublicAPIExplorers checks the baseline explorers through the
// facade.
func TestPublicAPIExplorers(t *testing.T) {
	space, err := avd.NewSpace(avd.Dimension{Name: "x", Min: 0, Max: 9, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	runner := funcTarget{func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: float64(sc.GetOr("x", 0)) / 9}
	}}
	random := runCampaign(t, runner, avd.NewRandomExplorer(space, 1), 5, 1)
	if len(random) != 5 {
		t.Errorf("random campaign ran %d tests", len(random))
	}
	exhaustive := runCampaign(t, runner, avd.NewExhaustiveExplorer(space), 100, 1)
	if len(exhaustive) != 10 {
		t.Errorf("exhaustive campaign ran %d tests, want all 10", len(exhaustive))
	}
	if n := avd.TestsToImpact(exhaustive, 1.0); n != 10 {
		t.Errorf("TestsToImpact = %d, want 10", n)
	}
}

// TestPublicAPIParallelCampaign pins the parallel-engine determinism
// contract against the real PBFT runner: one worker reproduces the
// paper's serial loop (cold runs, fed back one at a time) exactly, and a
// multi-worker run reproduces itself.
func TestPublicAPIParallelCampaign(t *testing.T) {
	w := avd.DefaultWorkload()
	w.Measure = 300 * time.Millisecond
	newRunner := func() *avd.PBFTRunner {
		runner, err := avd.NewPBFTRunner(w)
		if err != nil {
			t.Fatalf("NewPBFTRunner: %v", err)
		}
		return runner
	}
	newCtrl := func() *avd.Controller {
		ctrl, err := avd.NewController(avd.ControllerConfig{Seed: 3, SeedTests: 4},
			avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		return ctrl
	}
	same := func(label string, x, y []avd.Result) {
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

	var serial []avd.Result
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

// TestPublicAPIGenetic exercises the genetic explorer via the facade.
func TestPublicAPIGenetic(t *testing.T) {
	ga, err := avd.NewGenetic(avd.GeneticConfig{Seed: 1, Population: 6},
		avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatal(err)
	}
	runner := funcTarget{func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: float64(sc.GetOr(avd.DimMACMask, 0)) / 4095}
	}}
	results := runCampaign(t, runner, ga, 30, 1)
	if len(results) != 30 {
		t.Fatalf("GA campaign ran %d tests, want 30", len(results))
	}
	best := avd.BestSoFar(results)[len(results)-1]
	if best.Impact <= 0 {
		t.Error("GA made no progress on a trivial objective")
	}
}

// TestPublicAPISweep checks parallel exhaustive sweeps through the
// facade: eight workers, results in grid order.
func TestPublicAPISweep(t *testing.T) {
	space, err := avd.NewSpace(avd.Dimension{Name: "x", Min: 0, Max: 31, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	runner := funcTarget{func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: 0.5}
	}}
	results := runCampaign(t, runner, avd.NewExhaustiveExplorer(space), 100, 8)
	if len(results) != 32 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for i, r := range results {
		if r.Scenario.GetOr("x", -1) != int64(i) || r.Generator != "exhaustive" {
			t.Fatalf("sweep result %d is %s (%s)", i, r.Scenario.Key(), r.Generator)
		}
	}
}
