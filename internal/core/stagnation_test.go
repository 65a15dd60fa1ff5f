package core

import (
	"strings"
	"testing"

	"avd/internal/scenario"
)

// TestStagnationTriggersProbes: once µ stops improving for the window,
// the controller must start interleaving global random probes.
func TestStagnationTriggersProbes(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 5, SeedTests: 2, StagnationWindow: 5})
	// A flat runner: nothing ever improves after the first result.
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		return Result{Scenario: sc, Impact: 0.5}
	})
	results := runEngine(t, c, runner, 60, 1)
	probes := 0
	for _, r := range results[10:] {
		if r.Generator == "probe" {
			probes++
		}
	}
	if probes == 0 {
		t.Error("no probes generated despite a fully stagnant campaign")
	}
	// Probes alternate with mutations: neither should dominate fully.
	if probes == len(results[10:]) {
		t.Error("diversification replaced exploitation entirely")
	}
}

// TestStagnationDisabled: a negative window turns diversification off.
func TestStagnationDisabled(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 5, SeedTests: 2, StagnationWindow: -1})
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		return Result{Scenario: sc, Impact: 0.5}
	})
	results := runEngine(t, c, runner, 60, 1)
	for _, r := range results {
		if r.Generator == "probe" {
			t.Fatal("probe generated with diversification disabled")
		}
	}
}

// TestImprovementResetsStagnation: while µ keeps improving, no probes.
func TestImprovementResetsStagnation(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 6, SeedTests: 2, StagnationWindow: 5})
	n := 0.0
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		n += 0.001 // strictly improving impact
		return Result{Scenario: sc, Impact: n}
	})
	results := runEngine(t, c, runner, 40, 1)
	for _, r := range results {
		if r.Generator == "probe" {
			t.Fatal("probe generated while every test improved µ")
		}
	}
	// And exploitation is actually happening.
	mutations := 0
	for _, r := range results {
		if strings.HasPrefix(r.Generator, "mutate:") {
			mutations++
		}
	}
	if mutations == 0 {
		t.Error("no mutations in an improving campaign")
	}
}
