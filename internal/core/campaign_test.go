package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// pureRunner is a deterministic, concurrency-safe scenario scorer over
// two dimensions; impact depends on both so feedback trajectories are
// sensitive to ordering mistakes. Its coverage digest buckets x and y, so
// the Controller's novelty archive admits entries and, once µ stalls,
// schedules their mutants: a resume that rebuilt the archive wrongly
// proposes differently.
func pureRunner() Runner {
	return RunnerFunc(func(sc scenario.Scenario) Result {
		x := sc.GetOr("x", 0)
		y := sc.GetOr("y", 0)
		impact := float64((x*31+y*17)%1000) / 1000
		bucket := x/128*4 + y/16
		return Result{Scenario: sc, Impact: impact, Throughput: 1000 * (1 - impact), BaselineThroughput: 1000,
			Coverage: oracle.Coverage{
				Timeline:      uint64(x<<6|y) + 1,
				Behaviors:     uint64(bucket) + 1,
				BehaviorCount: uint32(bucket%5) + 1,
			}}
	})
}

// archiveTurns counts the results the novelty archive proposed.
func archiveTurns(results []Result) int {
	n := 0
	for _, r := range results {
		if strings.HasPrefix(r.Generator, "archive:") {
			n++
		}
	}
	return n
}

func twoDimPlugins() []Plugin {
	return []Plugin{
		gridPlugin("x", scenario.Dimension{Name: "x", Min: 0, Max: 1023, Step: 1}),
		gridPlugin("y", scenario.Dimension{Name: "y", Min: 0, Max: 63, Step: 1}),
	}
}

func campaignFingerprint(results []Result) []string {
	keys := make([]string, 0, len(results)*2)
	for _, r := range results {
		keys = append(keys, r.Scenario.Key(), r.Generator)
	}
	return keys
}

// TestParallelCampaignOneWorkerMatchesCampaign is the determinism
// contract on the RunAll path: a single worker must reproduce the
// serial loop bit-for-bit, results AND explorer feedback sequence.
func TestParallelCampaignOneWorkerMatchesCampaign(t *testing.T) {
	mk := func() Explorer {
		c, err := NewController(ControllerConfig{Seed: 42, SeedTests: 6}, twoDimPlugins()...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := serialLoop(mk(), pureRunner(), 80)
	parallel := runEngine(t, mk(), pureRunner(), 80, 1)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	a, b := campaignFingerprint(serial), campaignFingerprint(parallel)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workers=1 diverged from the serial loop at %d: %s vs %s", i, a[i], b[i])
		}
	}
	for i := range serial {
		if serial[i].Impact != parallel[i].Impact {
			t.Fatalf("impact diverged at %d", i)
		}
	}
}

// TestParallelCampaignDeterministicAcrossRuns: a fixed (seed, workers)
// pair must reproduce itself exactly through RunAll, however goroutines
// interleave.
func TestParallelCampaignDeterministicAcrossRuns(t *testing.T) {
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		run := func() []string {
			c, err := NewController(ControllerConfig{Seed: 7, SeedTests: 6}, twoDimPlugins()...)
			if err != nil {
				t.Fatal(err)
			}
			return campaignFingerprint(runEngine(t, c, pureRunner(), 60, workers))
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d nondeterministic at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
	}
}

// TestParallelCampaignRespectsBudget: a budget that is not a multiple of
// the worker count ends on a short batch, exactly on budget.
func TestParallelCampaignRespectsBudget(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 3, SeedTests: 4}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	results := runEngine(t, c, pureRunner(), 37, 8)
	if len(results) != 37 {
		t.Fatalf("campaign ran %d tests, budget 37", len(results))
	}
}

// TestParallelCampaignObserverInDispatchOrder: with a budget that is an
// exact multiple of the worker count, the observer still sees every
// test once, with consecutive 1-based iterations.
func TestParallelCampaignObserverInDispatchOrder(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 5, SeedTests: 4}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	var iters []int
	eng, err := NewEngine(fakeTarget{Runner: pureRunner()},
		WithExplorer(c), WithBudget(20), WithWorkers(4),
		WithObserver(func(i int, _ Result) { iters = append(iters, i) }))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != len(results) {
		t.Fatalf("observer saw %d of %d tests", len(iters), len(results))
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("observer out of order: %v", iters)
		}
	}
}

// TestParallelCampaignNoRepeats: the Ω dedup must hold across batches.
func TestParallelCampaignNoRepeats(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 9, SeedTests: 8}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	results := runEngine(t, c, pureRunner(), 200, 8)
	seen := make(map[scenario.CompactKey]bool, len(results))
	for _, r := range results {
		k := r.Scenario.Compact()
		if seen[k] {
			t.Fatalf("scenario %s executed twice", r.Scenario.Key())
		}
		seen[k] = true
	}
}

// TestRandomExplorerDrainsSpaceCompletely guards the exhaustion fix: the
// explorer must visit every point before reporting ok=false, even though
// the tail of the drain is collision-heavy.
func TestRandomExplorerDrainsSpaceCompletely(t *testing.T) {
	space := scenario.MustNewSpace(
		scenario.Dimension{Name: "x", Min: 0, Max: 31, Step: 1},
		scenario.Dimension{Name: "y", Min: 0, Max: 15, Step: 1},
	)
	ex := NewRandomExplorer(space, 13)
	seen := make(map[scenario.CompactKey]bool)
	for {
		sc, _, ok := ex.Next()
		if !ok {
			break
		}
		if seen[sc.Compact()] {
			t.Fatalf("repeat proposal %s", sc.Key())
		}
		seen[sc.Compact()] = true
	}
	if uint64(len(seen)) != space.Size() {
		t.Fatalf("explorer gave up after %d of %d points", len(seen), space.Size())
	}
	if _, _, ok := ex.Next(); ok {
		t.Fatal("exhausted explorer still proposing")
	}
}
