package avd_test

import (
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/raftsim"
)

// TestMinimizeRaftStorm is the acceptance test for scenario
// minimization: a discovered election-storm scenario shrinks to a
// strictly smaller fault schedule that still reproduces the storm
// (impact at the threshold), and the whole reduction is deterministic —
// two minimizations from the same original are identical.
func TestMinimizeRaftStorm(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	// Faults arm at measurement start (snapshot/fork execution
	// semantics), so the window must be long enough for the storm to
	// develop from a healthy steady state.
	w.Measure = 1500 * time.Millisecond
	target, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(target.Plugins()...)
	if err != nil {
		t.Fatal(err)
	}
	storm := space.New(map[string]int64{
		raftsim.DimClients:        50,
		raftsim.DimFlapIntervalMS: 100,
		raftsim.DimFlapDownMS:     400,
	})
	original := target.Run(storm)
	// With fault-free warmup (snapshot/fork semantics) the flap attack
	// tops out lower than when it also degraded the warmup: successor
	// leaders keep serving between strikes. ~0.6 is a full-blown storm.
	if original.Impact < 0.55 {
		t.Fatalf("storm scenario impact %.3f; want a real storm to minimize", original.Impact)
	}

	m1, err := core.Minimize(target, original, core.MinimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Reduced {
		t.Fatalf("storm not reduced: minimal %s weight %d vs original weight %d",
			m1.Minimal.Scenario, m1.Minimal.Scenario.Weight(), original.Scenario.Weight())
	}
	if m1.Minimal.Scenario.Weight() >= original.Scenario.Weight() {
		t.Fatalf("minimal weight %d not strictly below original %d",
			m1.Minimal.Scenario.Weight(), original.Scenario.Weight())
	}
	if m1.Minimal.Impact < m1.ImpactThreshold {
		t.Fatalf("minimal impact %.3f below threshold %.3f", m1.Minimal.Impact, m1.ImpactThreshold)
	}
	// The minimal storm must still be a flap attack: dropping the attack
	// dimensions entirely cannot reproduce an election storm.
	if m1.Minimal.Scenario.GetOr(raftsim.DimFlapIntervalMS, 0) == 0 ||
		m1.Minimal.Scenario.GetOr(raftsim.DimFlapDownMS, 0) == 0 {
		t.Fatalf("minimal scenario %s lost the attack entirely", m1.Minimal.Scenario)
	}

	m2, err := core.Minimize(target, original, core.MinimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Minimal.Scenario.Compact() != m2.Minimal.Scenario.Compact() {
		t.Fatalf("nondeterministic minimization: %s vs %s", m1.Minimal.Scenario, m2.Minimal.Scenario)
	}
	if m1.Runs != m2.Runs || m1.Minimal.Impact != m2.Minimal.Impact {
		t.Fatalf("nondeterministic minimization: runs %d/%d impact %.4f/%.4f",
			m1.Runs, m2.Runs, m1.Minimal.Impact, m2.Minimal.Impact)
	}
}
