package cluster

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/plugin"
	"avd/internal/scenario"
)

func baselineScenario(t *testing.T, correct int64) scenario.Scenario {
	t.Helper()
	return scenario.MustNewSpace(scenario.Dimension{
		Name: plugin.DimCorrectClients, Min: correct, Max: correct, Step: 1,
	}).New(nil)
}

// TestBaselineForkedEqualsCold pins the warm-fork baseline contract
// (ISSUE 10): an attack-free baseline forked from the (count, 0) master
// must be bit-for-bit the cold-built baseline — same throughput, same
// latency, same report — exactly as attack tests enforce forked==cold.
func TestBaselineForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	for _, correct := range []int64{10, 25} {
		// Separate runners: the forked path must not see state the cold
		// path built, and vice versa.
		cold, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		sc := baselineScenario(t, correct)
		coldRes, coldRep := cold.Execute(sc, false, false)
		forkRes, forkRep := forked.Execute(sc, false, true)
		if !reflect.DeepEqual(coldRes, forkRes) {
			t.Errorf("correct=%d: forked baseline Result differs from cold:\ncold: %+v\nfork: %+v", correct, coldRes, forkRes)
		}
		if !reflect.DeepEqual(coldRep, forkRep) {
			t.Errorf("correct=%d: forked baseline Report differs from cold:\ncold: %+v\nfork: %+v", correct, coldRep, forkRep)
		}
		// A second fork from the now-captured master must reproduce the
		// first (snapshot reuse).
		againRes, againRep := forked.Execute(sc, false, true)
		if !reflect.DeepEqual(forkRes, againRes) || !reflect.DeepEqual(forkRep, againRep) {
			t.Errorf("correct=%d: re-forked baseline diverged from first fork", correct)
		}
	}
}

// TestBaselineWindowForkedEqualsCold: a baseline's window is the attack
// window, Measure, and the cold and forked baseline paths agree over it
// bit-for-bit.
func TestBaselineWindowForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	cold, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := baselineScenario(t, 15)
	coldRes, _ := cold.Execute(sc, false, false)
	forkRes, _ := forked.Execute(sc, false, true)
	if !reflect.DeepEqual(coldRes, forkRes) {
		t.Errorf("forked baseline differs from cold:\ncold: %+v\nfork: %+v", coldRes, forkRes)
	}
}
