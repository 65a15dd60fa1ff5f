package core

import (
	"math"
	"strings"
	"testing"

	"avd/internal/scenario"
)

func newTestGenetic(t *testing.T, cfg GeneticConfig, plugins ...Plugin) *Genetic {
	t.Helper()
	if len(plugins) == 0 {
		plugins = []Plugin{&gridPlugin{name: "x", dim: scenario.Dimension{Name: "x", Min: 0, Max: 4095, Step: 1}}}
	}
	g, err := NewGenetic(cfg, plugins...)
	if err != nil {
		t.Fatalf("NewGenetic: %v", err)
	}
	return g
}

func TestGeneticRequiresPlugins(t *testing.T) {
	if _, err := NewGenetic(GeneticConfig{}); err == nil {
		t.Error("GA without plugins accepted")
	}
}

func TestGeneticNeverRepeats(t *testing.T) {
	g := newTestGenetic(t, GeneticConfig{Seed: 1})
	results := runEngine(t, g, &peakRunner{peak: 2000, width: 100}, 200, 1)
	seen := make(map[string]bool)
	for _, r := range results {
		key := r.Scenario.Key()
		if seen[key] {
			t.Fatalf("GA executed %s twice", key)
		}
		seen[key] = true
	}
}

func TestGeneticConvergesOnPeak(t *testing.T) {
	g := newTestGenetic(t, GeneticConfig{Seed: 2, Population: 16})
	runner := &peakRunner{peak: 1234, width: 120}
	results := runEngine(t, g, runner, 250, 1)
	best := BestSoFar(results)[len(results)-1]
	if best.Impact < 0.95 {
		t.Errorf("GA best impact %.3f after 250 tests on a smooth peak", best.Impact)
	}
	// Selection pressure: later generations are fitter on average than
	// the random generation zero (the GA keeps diversity by design, so we
	// assert progress, not collapse onto the peak).
	mean := func(rs []Result) float64 {
		var s float64
		for _, r := range rs {
			s += r.Impact
		}
		return s / float64(len(rs))
	}
	first, last := mean(results[:16]), mean(results[len(results)-32:])
	if last <= first {
		t.Errorf("no selection pressure: first generation mean %.3f, final %.3f", first, last)
	}
	if math.IsNaN(last) {
		t.Fatal("NaN fitness")
	}
}

func TestGeneticGenerationsAdvance(t *testing.T) {
	g := newTestGenetic(t, GeneticConfig{Seed: 3, Population: 8})
	runEngine(t, g, &peakRunner{peak: 100, width: 50}, 40, 1)
	if g.Generation() < 3 {
		t.Errorf("generation = %d after 40 tests with population 8, want >= 3", g.Generation())
	}
}

func TestGeneticGeneratorLabels(t *testing.T) {
	g := newTestGenetic(t, GeneticConfig{Seed: 4, Population: 8})
	results := runEngine(t, g, &peakRunner{peak: 100, width: 50}, 20, 1)
	for _, r := range results {
		if !strings.HasPrefix(r.Generator, "ga:gen") {
			t.Fatalf("generator = %q", r.Generator)
		}
	}
}

func TestGeneticCrossoverMixesDimensions(t *testing.T) {
	px := &gridPlugin{name: "px", dim: scenario.Dimension{Name: "x", Min: 0, Max: 1000, Step: 1}}
	py := &gridPlugin{name: "py", dim: scenario.Dimension{Name: "y", Min: 0, Max: 1000, Step: 1}}
	g := newTestGenetic(t, GeneticConfig{Seed: 5, Population: 8, CrossoverRate: 1.0}, px, py)
	// Runner rewards x high and y low; crossover should combine them.
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		x := float64(sc.GetOr("x", 0)) / 1000
		y := 1 - float64(sc.GetOr("y", 0))/1000
		return Result{Scenario: sc, Impact: (x + y) / 2}
	})
	results := runEngine(t, g, runner, 300, 1)
	best := BestSoFar(results)[len(results)-1]
	if best.Impact < 0.9 {
		t.Errorf("GA with crossover reached only %.3f on a separable objective", best.Impact)
	}
}

func TestGeneticDeterministic(t *testing.T) {
	run := func() []string {
		g := newTestGenetic(t, GeneticConfig{Seed: 11, Population: 8})
		results := runEngine(t, g, &peakRunner{peak: 500, width: 80}, 60, 1)
		keys := make([]string, len(results))
		for i, r := range results {
			keys[i] = r.Scenario.Key()
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GA nondeterministic at %d", i)
		}
	}
}

// TestGeneticExhaustsSmallSpace locks the early-exhaustion fix: once
// most of a small space was seen, the GA's bounded rejection sampling
// (16 mutation + 64 random retries per slot) would strike out on every
// slot of a generation and report exhaustion with unexecuted scenarios
// remaining. Next must keep producing until every point ran.
func TestGeneticExhaustsSmallSpace(t *testing.T) {
	p := &gridPlugin{name: "tiny", dim: scenario.Dimension{Name: "x", Min: 0, Max: 999, Step: 1}}
	g := newTestGenetic(t, GeneticConfig{Seed: 7, Population: 8}, p)
	results := runEngine(t, g, &peakRunner{peak: 500, width: 100}, 2000, 1)
	if len(results) != 1000 {
		t.Fatalf("GA executed %d of 1000 scenarios before reporting exhaustion", len(results))
	}
	seen := make(map[string]bool)
	for _, r := range results {
		if key := r.Scenario.Key(); seen[key] {
			t.Fatalf("GA executed %s twice", key)
		} else {
			seen[key] = true
		}
	}
}

func TestGeneticConfigDefaults(t *testing.T) {
	cfg := GeneticConfig{}
	cfg.applyDefaults()
	if cfg.Population != 16 || cfg.Elite != 2 || cfg.TournamentSize != 3 {
		t.Errorf("defaults = %+v", cfg)
	}
	tiny := GeneticConfig{Population: 2, Elite: 5}
	tiny.applyDefaults()
	if tiny.Elite >= tiny.Population {
		t.Errorf("elite %d not clamped below population %d", tiny.Elite, tiny.Population)
	}
}
