package avd_test

import (
	"context"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

// TestEnginePBFTAgreementViolationDetected drives an injected agreement
// violation through the full stack — equivocating primary plus the
// quorum-miscounting defect, Engine streaming, oracle wiring — and
// checks the Result carries the structured violation. Without the
// injected defects the same deployment must stay violation-free.
func TestEnginePBFTAgreementViolationDetected(t *testing.T) {
	run := func(inject bool) core.Result {
		w := cluster.DefaultWorkload()
		w.Warmup = 100 * time.Millisecond
		w.Measure = 300 * time.Millisecond
		w.PBFT.QuorumBug = inject
		w.Equivocate = inject
		target, err := cluster.NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		space, err := scenario.NewSpace(scenario.Dimension{Name: plugin.DimCorrectClients, Min: 5, Max: 5, Step: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(target, core.WithExplorer(core.NewExhaustiveExplorer(space)), core.WithBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("ran %d tests, want 1", len(results))
		}
		return results[0]
	}

	clean := run(false)
	if len(clean.Violations) != 0 {
		t.Fatalf("correct PBFT deployment reported violations: %v", clean.Violations)
	}
	broken := run(true)
	if !broken.Violated("pbft/agreement") {
		t.Fatalf("equivocating primary + quorum bug not detected; violations = %v", broken.Violations)
	}
}

// TestEngineRaftElectionSafetyViolationDetected: with the injected
// double-vote defect, split-vote elections put two leaders in one term,
// and the election-safety oracle reports it on the engine's Result. The
// same deployment without the defect stays violation-free.
func TestEngineRaftElectionSafetyViolationDetected(t *testing.T) {
	run := func(inject bool) core.Result {
		w := raftsim.DefaultWorkload()
		w.Warmup = 300 * time.Millisecond
		// Faults arm at measurement start; give the flap-driven election
		// churn several strike cycles to hit a split vote.
		w.Measure = 1500 * time.Millisecond
		// Near-identical election timeouts force simultaneous candidacies
		// (split votes), the condition under which double voting elects
		// two leaders in one term.
		w.Raft.ElectionTimeoutMin = 150 * time.Millisecond
		w.Raft.ElectionTimeoutMax = 155 * time.Millisecond
		w.Raft.DoubleVoteBug = inject
		target, err := raftsim.NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		space, err := scenario.NewSpace(
			scenario.Dimension{Name: raftsim.DimClients, Min: 5, Max: 5, Step: 1},
			scenario.Dimension{Name: raftsim.DimFlapIntervalMS, Min: 100, Max: 100, Step: 1},
			scenario.Dimension{Name: raftsim.DimFlapDownMS, Min: 200, Max: 200, Step: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(target, core.WithExplorer(core.NewExhaustiveExplorer(space)), core.WithBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("ran %d tests, want 1", len(results))
		}
		return results[0]
	}

	clean := run(false)
	if len(clean.Violations) != 0 {
		t.Fatalf("correct Raft deployment reported violations: %v", clean.Violations)
	}
	broken := run(true)
	if !broken.Violated("raft/election-safety") {
		t.Fatalf("double-vote defect not detected; violations = %v", broken.Violations)
	}
}
