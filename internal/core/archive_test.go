package core

import (
	"strings"
	"testing"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// covRunner synthesizes coverage as a pure function of the scenario:
// Timeline is unique per point, Behaviors buckets x so only some moves
// discover new behavior — the shape real SUT coverage has.
func covRunner(bucket int64) Runner {
	return RunnerFunc(func(sc scenario.Scenario) Result {
		x := sc.GetOr("x", 0)
		return Result{
			Scenario: sc,
			Impact:   float64(x) / 5000,
			Coverage: oracle.Coverage{
				Timeline:      uint64(x) + 1,
				Behaviors:     uint64(x/bucket) + 1,
				BehaviorCount: uint32(x/bucket) + 1,
			},
		}
	})
}

// TestControllerDrainsSpace: ok=false means every point ran. Rejection
// sampling used to give up after 128 collisions and end the campaign a
// point short of a drained space (seeds 3, 13 and 18 stopped at 255 of
// 256); the grid scan behind it finds the last points.
func TestControllerDrainsSpace(t *testing.T) {
	p := &gridPlugin{name: "tiny", dim: scenario.Dimension{Name: "x", Min: 0, Max: 255, Step: 1}}
	for seed := int64(1); seed <= 20; seed++ {
		c := newTestController(t, ControllerConfig{Seed: seed}, p)
		results := runEngine(t, c, covRunner(16), 1000, 1)
		if len(results) != 256 {
			t.Errorf("seed %d: controller executed %d of 256 scenarios before reporting exhaustion", seed, len(results))
		}
	}
}

// TestStagnationMutatesArchive: once µ stalls, the diversification turn
// mutates novelty-archive entries rather than drawing random probes.
func TestStagnationMutatesArchive(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 3, SeedTests: 5, StagnationWindow: 5})
	// Impact is flat, so µ never moves after the first test, while the
	// behavior buckets keep admitting new entries.
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		res := covRunner(64).Run(sc)
		res.Impact = 0.5
		return res
	})
	results := runEngine(t, c, runner, 200, 1)
	archived := 0
	for _, r := range results {
		switch {
		case strings.HasPrefix(r.Generator, "archive:"):
			archived++
		case r.Generator == "seed", r.Generator == "probe", r.Generator == "random",
			strings.HasPrefix(r.Generator, "mutate:"):
		default:
			t.Fatalf("unexpected generator %q", r.Generator)
		}
	}
	if archived == 0 {
		t.Error("no archive mutations scheduled in a stagnant 200-test campaign")
	}
	if c.Corpus().Len() == 0 || c.Corpus().Behaviors() == 0 {
		t.Errorf("archive empty after campaign: %d entries, %d behaviors", c.Corpus().Len(), c.Corpus().Behaviors())
	}
}

// TestArchiveSkipsBrokenRuns: a run that errored before measuring
// carries no coverage signal; a hung run (event storm) does.
func TestArchiveSkipsBrokenRuns(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 4})
	sc, _, _ := c.Next()
	c.Record(Result{Scenario: sc, Error: "panic", Coverage: oracle.Coverage{Timeline: 1, Behaviors: 1, BehaviorCount: 1}})
	if c.Corpus().Len() != 0 {
		t.Error("errored run admitted to the archive")
	}
	sc, _, _ = c.Next()
	c.Record(Result{Scenario: sc, Hung: true, Error: "step budget", Coverage: oracle.Coverage{Timeline: 2, Behaviors: 2, BehaviorCount: 1}})
	if c.Corpus().Len() != 1 {
		t.Error("hung run (interesting behavior) rejected from the archive")
	}
}
