package avd_test

import (
	"context"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/raftsim"
)

// newSmallPBFTTarget keeps engine acceptance tests fast: short windows,
// tiny client populations.
func newSmallPBFTTarget(t *testing.T) core.Target {
	t.Helper()
	w := cluster.DefaultWorkload()
	w.Warmup = 100 * time.Millisecond
	w.Measure = 300 * time.Millisecond
	target, err := cluster.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func newSmallRaftTarget(t *testing.T) core.Target {
	t.Helper()
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 500 * time.Millisecond
	target, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func fingerprint(results []core.Result) []string {
	out := make([]string, 0, 2*len(results))
	for _, r := range results {
		out = append(out, r.Scenario.Key(), r.Generator)
	}
	return out
}

// TestEngineCrossTargetDeterminism is the acceptance contract of the
// Target seam: the same Controller explorer, unmodified, drives both
// the PBFT and the Raft system under test through Engine.Run, and each
// (seed, workers) campaign reproduces itself bit-for-bit.
func TestEngineCrossTargetDeterminism(t *testing.T) {
	targets := []struct {
		name string
		mk   func(t *testing.T) core.Target
	}{
		{"pbft", newSmallPBFTTarget},
		{"raft", newSmallRaftTarget},
	}
	for _, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []string {
				target := tc.mk(t)
				ctrl, err := core.NewController(core.ControllerConfig{Seed: 11, SeedTests: 5}, target.Plugins()...)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := core.NewEngine(target,
					core.WithExplorer(ctrl), core.WithBudget(14), core.WithWorkers(2))
				if err != nil {
					t.Fatal(err)
				}
				results, err := eng.RunAll(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != 14 {
					t.Fatalf("campaign ran %d of 14 tests", len(results))
				}
				return fingerprint(results)
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s engine campaign nondeterministic at %d: %s vs %s", tc.name, i, a[i], b[i])
				}
			}
		})
	}
}

// TestEngineCrossTargetArchive: both targets' coverage digests reach the
// Controller's novelty archive, so its diversification turn has parents
// to mutate on either system.
func TestEngineCrossTargetArchive(t *testing.T) {
	for _, mk := range []func(t *testing.T) core.Target{newSmallPBFTTarget, newSmallRaftTarget} {
		target := mk(t)
		ctrl, err := core.NewController(core.ControllerConfig{Seed: 5}, target.Plugins()...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(target, core.WithExplorer(ctrl), core.WithBudget(12))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 12 {
			t.Fatalf("%s campaign ran %d of 12 tests", target.Name(), len(results))
		}
		if ctrl.Corpus().Len() == 0 {
			t.Errorf("%s campaign admitted nothing to the archive", target.Name())
		}
	}
}

// TestEngineCancellationMidCampaign: canceling a real-target campaign
// stops the stream promptly with partial results.
func TestEngineCancellationMidCampaign(t *testing.T) {
	target := newSmallRaftTarget(t)
	eng, err := core.NewEngine(target, core.WithSeed(3), core.WithBudget(500), core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial []core.Result
	for res := range eng.Run(ctx) {
		partial = append(partial, res)
		if len(partial) == 4 {
			cancel()
		}
	}
	if err := eng.Err(); err != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	if len(partial) < 4 || len(partial) > 10 {
		t.Fatalf("cancellation at test 4 yielded %d results", len(partial))
	}
}

// TestEngineRaftFindsElectionStorm: the acceptance demo — the
// fitness-guided search discovers a high-impact leader-flap scenario
// within a small budget.
func TestEngineRaftFindsElectionStorm(t *testing.T) {
	target := newSmallRaftTarget(t)
	eng, err := core.NewEngine(target, core.WithSeed(9), core.WithBudget(40))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best := core.BestSoFar(results)[len(results)-1]
	if best.Impact < 0.5 {
		t.Fatalf("40-test campaign found best impact %.3f; want an election storm (>= 0.5)", best.Impact)
	}
	if best.Scenario.GetOr(raftsim.DimFlapDownMS, 0) == 0 {
		t.Fatalf("best attack %s does not use the leader flap", best.Scenario)
	}
}
