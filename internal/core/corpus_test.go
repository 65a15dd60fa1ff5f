package core

import (
	"math/rand"
	"testing"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

func corpusSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := scenario.NewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 100, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func covResult(space *scenario.Space, x int64, behaviors uint64) Result {
	return Result{
		Scenario: space.New(map[string]int64{"x": x}),
		Coverage: oracle.Coverage{Timeline: uint64(x) + 1, Behaviors: behaviors, BehaviorCount: 3},
	}
}

func TestCorpusAdmission(t *testing.T) {
	space := corpusSpace(t)
	c := NewCorpus()
	if c.Add(Result{Scenario: space.New(map[string]int64{"x": 1})}) {
		t.Error("zero-coverage result admitted")
	}
	if !c.Add(covResult(space, 10, 0xb1)) {
		t.Error("novel behavior rejected")
	}
	if c.Add(covResult(space, 20, 0xb1)) {
		t.Error("known behavior re-admitted")
	}
	if c.Add(covResult(space, 10, 0xb2)) {
		t.Error("retained scenario re-admitted under a new digest")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Rejected runs still feed the campaign-wide observation counts.
	if c.Behaviors() != 2 {
		t.Errorf("observed %d behaviors, want 2", c.Behaviors())
	}
}

func TestCorpusEnergy(t *testing.T) {
	plain := corpusEnergy(Result{Coverage: oracle.Coverage{Behaviors: 1}})
	impactful := corpusEnergy(Result{Impact: 0.9, Coverage: oracle.Coverage{Behaviors: 1}})
	violating := corpusEnergy(Result{
		Coverage:   oracle.Coverage{Behaviors: 1},
		Violations: []oracle.Violation{{Invariant: "x/y"}},
	})
	if !(plain < impactful && impactful < violating) {
		t.Errorf("energy ordering: plain %.2f, impactful %.2f, violating %.2f", plain, impactful, violating)
	}
}

// TestCorpusPickRotates: pick weight decays with charges, so a heavy
// entry cannot monopolize scheduling forever.
func TestCorpusPickRotates(t *testing.T) {
	space := corpusSpace(t)
	c := NewCorpus()
	heavy := covResult(space, 1, 0xaa)
	heavy.Violations = []oracle.Violation{{Invariant: "v", Count: 1}}
	c.Add(heavy)
	c.Add(covResult(space, 2, 0xbb))

	rng := rand.New(rand.NewSource(3))
	picked := make(map[uint64]int)
	for i := 0; i < 200; i++ {
		e := c.Pick(rng)
		picked[e.Result.Coverage.Behaviors]++
	}
	if picked[0xaa] <= picked[0xbb] {
		t.Errorf("violating entry not favored: %v", picked)
	}
	if picked[0xbb] == 0 {
		t.Errorf("light entry starved: %v", picked)
	}
	if c.Pick(rand.New(rand.NewSource(1))) == nil {
		t.Error("Pick on non-empty corpus returned nil")
	}
	if NewCorpus().Pick(rng) != nil {
		t.Error("Pick on empty corpus returned an entry")
	}
}

func TestCorpusPickDeterministic(t *testing.T) {
	run := func() []uint64 {
		space := corpusSpace(t)
		c := NewCorpus()
		for i := int64(0); i < 8; i++ {
			c.Add(covResult(space, i, uint64(i)+1))
		}
		rng := rand.New(rand.NewSource(42))
		var order []uint64
		for i := 0; i < 32; i++ {
			order = append(order, c.Pick(rng).Result.Coverage.Behaviors)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick order nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}
