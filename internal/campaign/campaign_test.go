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

// TestManifestRecordsEffectiveWorkers: -workers 0 (or less) runs on the
// one worker core.WithWorkers makes of it, so the manifest says 1 and a
// durable campaign started either way resumes the other; -workers 2 is a
// different campaign and still refuses.
func TestManifestRecordsEffectiveWorkers(t *testing.T) {
	manifest := func(workers int) core.Manifest {
		setup, err := Build(Config{
			Target: "raft", Strategy: "avd", Tests: 10, Seed: 1,
			Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: workers, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return setup.Manifest
	}
	one := manifest(1)
	for _, workers := range []int{0, -3} {
		m := manifest(workers)
		if m.Workers != 1 {
			t.Errorf("-workers %d: manifest records workers=%d, want 1", workers, m.Workers)
		}
		if err := one.Validate(m); err != nil {
			t.Errorf("-workers 1 does not resume -workers %d: %v", workers, err)
		}
		if err := m.Validate(one); err != nil {
			t.Errorf("-workers %d does not resume -workers 1: %v", workers, err)
		}
	}
	if err := manifest(2).Validate(one); err == nil {
		t.Error("-workers 2 resumed a -workers 1 campaign")
	}
}

// TestParseShard: -shard is k/K exactly — two plain decimal numbers with
// 0 <= k < K — or empty for an unsharded run; a sign, a space or anything
// after K is an error, not something to stop reading at.
func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in            string
		shard, shards int
		ok            bool
	}{
		{"", 0, 1, true},
		{"1/2", 1, 2, true},
		{"0/4", 0, 4, true},
		{"1/2/7", 0, 0, false},
		{"0/4x", 0, 0, false},
		{" 0/4", 0, 0, false},
		{"0/ 4", 0, 0, false},
		{"+1/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"2/2", 0, 0, false},
		{"0/0", 0, 0, false},
		{"3", 0, 0, false},
		{"/", 0, 0, false},
	} {
		shard, shards, err := ParseShard(tc.in)
		if (err == nil) != tc.ok || shard != tc.shard || shards != tc.shards {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, shard, shards, err, tc.shard, tc.shards, tc.ok)
		}
	}
}
