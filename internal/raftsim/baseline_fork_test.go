package raftsim

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/scenario"
)

func raftBaselineScenario(t *testing.T, clients int64) scenario.Scenario {
	t.Helper()
	return scenario.MustNewSpace(scenario.Dimension{
		Name: DimClients, Min: clients, Max: clients, Step: 1,
	}).New(nil)
}

// TestBaselineForkedEqualsCold pins the warm-fork baseline contract for
// the Raft target (ISSUE 10): an attack-free baseline forked from the
// per-count master must be bit-for-bit the cold-built baseline.
func TestBaselineForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	for _, clients := range []int64{10, 25} {
		cold, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		sc := raftBaselineScenario(t, clients)
		coldRes, coldRep := cold.Execute(sc, false, false)
		forkRes, forkRep := forked.Execute(sc, false, true)
		if !reflect.DeepEqual(coldRes, forkRes) {
			t.Errorf("clients=%d: forked baseline Result differs from cold:\ncold: %+v\nfork: %+v", clients, coldRes, forkRes)
		}
		if !reflect.DeepEqual(coldRep, forkRep) {
			t.Errorf("clients=%d: forked baseline Report differs from cold:\ncold: %+v\nfork: %+v", clients, coldRep, forkRep)
		}
		againRes, againRep := forked.Execute(sc, false, true)
		if !reflect.DeepEqual(forkRes, againRes) || !reflect.DeepEqual(forkRep, againRep) {
			t.Errorf("clients=%d: re-forked baseline diverged from first fork", clients)
		}
	}
}

// TestBaselineWindowForkedEqualsCold: the cold and forked baseline paths
// agree over the full Measure window, the only window a baseline has.
func TestBaselineWindowForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	cold, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := raftBaselineScenario(t, 15)
	coldRes, _ := cold.Execute(sc, false, false)
	forkRes, _ := forked.Execute(sc, false, true)
	if !reflect.DeepEqual(coldRes, forkRes) {
		t.Errorf("forked baseline differs from cold:\ncold: %+v\nfork: %+v", coldRes, forkRes)
	}
}
