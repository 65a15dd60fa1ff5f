package campaign

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
)

// harnessTarget restates what benchmark/ asserts on Build's target at
// run time (benchmark/setup.go). Tier-1 only type-checks that module, so
// without this test a target that dropped one of these methods would
// pass here and fail the benchmark pipeline.
type harnessTarget interface {
	core.Target
	core.WorkerSnapshotter
	core.Preparer
	core.Warmer
	Phases() core.PhaseBreakdown
	FlushMasters()
}

// TestBuildTargetsAreFullHarnesses: for every target x strategy x fault
// set the CLIs accept, Build succeeds and hands back a full harness.
func TestBuildTargetsAreFullHarnesses(t *testing.T) {
	for _, target := range []string{"pbft", "raft"} {
		for _, strategy := range []string{"avd", "random", "genetic", "coverage"} {
			for _, faults := range []string{"", "crash", "skew,oneway", "corrupt,dup", "crash,skew,oneway,corrupt,dup"} {
				setup, err := Build(Config{
					Target: target, Strategy: strategy, Faults: faults,
					Tests: 10, Seed: 1, Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
				})
				if err != nil {
					t.Fatalf("%s/%s/-faults %q: %v", target, strategy, faults, err)
				}
				if _, ok := setup.Target.(harnessTarget); !ok {
					t.Errorf("%s/%s/-faults %q: target %T is not a full harness (fork, prepare, warm, phases, flush)", target, strategy, faults, setup.Target)
				}
				if setup.Explorer == nil || setup.Space.Size() == 0 {
					t.Errorf("%s/%s/-faults %q: empty explorer or space", target, strategy, faults)
				}
			}
		}
	}
}

// TestRunForkWorkerIsRunFork: the worker-slot entry point the benchmark
// still calls is RunFork, whatever slot it names.
func TestRunForkWorkerIsRunFork(t *testing.T) {
	for _, target := range []string{"pbft", "raft"} {
		setup, err := Build(Config{
			Target: target, Strategy: "avd", Faults: "crash",
			Tests: 10, Seed: 1, Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, _, ok := setup.Explorer.Next()
		if !ok {
			t.Fatalf("%s: explorer proposed nothing", target)
		}
		h := setup.Target.(harnessTarget)
		want := h.RunFork(sc)
		if got := h.RunForkWorker(sc, 3); !reflect.DeepEqual(want, got) {
			t.Errorf("%s %s: RunForkWorker differs from RunFork:\nfork:   %+v\nworker: %+v", target, sc.Key(), want, got)
		}
		h.Prepare(sc)
		h.Warm([]scenario.Scenario{sc})
		if p := h.Phases(); p.RunSeconds <= 0 || p.BaselineSeconds <= 0 {
			t.Errorf("%s: phases did not accrue: %+v", target, p)
		}
		h.FlushMasters()
	}
}
