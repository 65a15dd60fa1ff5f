package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avd/internal/scenario"
)

// gridPlugin is a test plugin over one integer dimension with simple
// +/-delta mutation.
type gridPlugin struct {
	name string
	dim  scenario.Dimension
}

func (p *gridPlugin) Name() string { return p.name }

func (p *gridPlugin) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{p.dim}
}

func (p *gridPlugin) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	cur := parent.GetOr(p.dim.Name, p.dim.Min)
	max := p.dim.Count() - 1
	d := int64(math.Round(distance * float64(max)))
	if d < 1 {
		d = 1
	}
	d = 1 + rng.Int63n(d)
	if rng.Intn(2) == 0 {
		d = -d
	}
	return parent.With(p.dim.Name, cur+d*p.dim.Step)
}

// peakRunner scores scenarios by proximity to a hidden peak on dimension
// "x" — a smooth landscape hill-climbing should exploit.
type peakRunner struct {
	peak  int64
	width float64
	runs  int
}

func (r *peakRunner) Run(sc scenario.Scenario) Result {
	r.runs++
	x := sc.GetOr("x", 0)
	d := float64(x - r.peak)
	impact := math.Exp(-d * d / (2 * r.width * r.width))
	return Result{Scenario: sc, Impact: impact, Throughput: 1000 * (1 - impact), BaselineThroughput: 1000}
}

func newTestController(t *testing.T, cfg ControllerConfig, plugins ...Plugin) *Controller {
	t.Helper()
	if len(plugins) == 0 {
		plugins = []Plugin{&gridPlugin{name: "x", dim: scenario.Dimension{Name: "x", Min: 0, Max: 4095, Step: 1}}}
	}
	c, err := NewController(cfg, plugins...)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

func TestControllerRequiresPlugins(t *testing.T) {
	if _, err := NewController(ControllerConfig{}); err == nil {
		t.Error("controller without plugins accepted")
	}
}

func TestControllerNeverRepeatsScenarios(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 3, SeedTests: 5})
	runner := &peakRunner{peak: 2000, width: 50}
	results := runEngine(t, c, runner, 300, 1)
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		key := r.Scenario.Key()
		if seen[key] {
			t.Fatalf("scenario %s executed twice (Ω dedup broken)", key)
		}
		seen[key] = true
	}
}

func TestControllerBeatsRandomOnStructuredSpace(t *testing.T) {
	// The paper's core claim (Figure 2): fitness-guided exploration finds
	// high-impact scenarios faster than random on a structured space.
	budget := 120
	avgTests := func(mk func(seed int64) Explorer) float64 {
		total := 0.0
		seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
		for _, seed := range seeds {
			runner := &peakRunner{peak: 1234, width: 60}
			results := runEngine(t, mk(seed), runner, budget, 1)
			n := TestsToImpact(results, 0.95)
			if n == 0 {
				n = budget * 2 // never found: penalize
			}
			total += float64(n)
		}
		return total / float64(len(seeds))
	}
	avd := avgTests(func(seed int64) Explorer {
		return newTestController(t, ControllerConfig{Seed: seed, SeedTests: 10})
	})
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 4095, Step: 1})
	random := avgTests(func(seed int64) Explorer { return NewRandomExplorer(space, seed) })
	if avd >= random {
		t.Errorf("AVD needed %.1f tests on average, random %.1f: guidance not helping", avd, random)
	}
}

func TestMutateDistanceShrinksForGoodParents(t *testing.T) {
	// Line 3 of Algorithm 1: distance = 1 - parent.impact/µ. Verify via
	// the observable effect: after seeding with a very good parent, the
	// controller's children cluster near it.
	c := newTestController(t, ControllerConfig{Seed: 9, SeedTests: 1, TopSetSize: 1})
	peak := int64(2048)
	// Feed a synthetic near-perfect parent.
	sc := c.SpaceOf().New(map[string]int64{"x": peak})
	c.history[sc.Compact()] = true
	c.Record(Result{Scenario: sc, Impact: 0.99})
	c.executed = 50 // past the seeding phase
	near, total := 0, 0
	for i := 0; i < 200; i++ {
		child, gen, ok := c.Next()
		if !ok {
			break
		}
		if !strings.HasPrefix(gen, "mutate:") {
			c.Record(Result{Scenario: child, Impact: 0})
			continue
		}
		total++
		x := child.GetOr("x", 0)
		if x > peak-64 && x < peak+64 {
			near++
		}
		c.Record(Result{Scenario: child, Impact: 0})
	}
	if total == 0 {
		t.Fatal("controller produced no mutations")
	}
	if float64(near)/float64(total) < 0.8 {
		t.Errorf("only %d/%d children near a 0.99-impact parent; mutateDistance not fine-tuning", near, total)
	}
}

func TestMutateDistanceLargeForPoorParents(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 10, SeedTests: 1, TopSetSize: 2})
	// µ set by a good scenario; a poor parent also in Π.
	good := c.SpaceOf().New(map[string]int64{"x": 100})
	poor := c.SpaceOf().New(map[string]int64{"x": 3000})
	c.history[good.Compact()] = true
	c.history[poor.Compact()] = true
	c.Record(Result{Scenario: good, Impact: 1.0})
	c.Record(Result{Scenario: poor, Impact: 0.01})
	c.executed = 50
	far := 0
	mutOfPoor := 0
	for i := 0; i < 400; i++ {
		child, gen, ok := c.Next()
		if !ok {
			break
		}
		if strings.HasPrefix(gen, "mutate:") {
			x := child.GetOr("x", 0)
			// Children of the poor parent (x near 3000 origin) should
			// scatter; measure how many land far from both parents.
			if x > 3300 || (x > 500 && x < 2700) {
				far++
			}
			if x > 2000 {
				mutOfPoor++
			}
		}
		c.Record(Result{Scenario: child, Impact: 0})
	}
	if far == 0 {
		t.Error("no long-distance mutations from a poor parent; mutateDistance stuck small")
	}
}

func TestPluginFitnessGainShiftsSelection(t *testing.T) {
	// Two plugins on separate dimensions; only "good"'s dimension
	// matters. Its fitness gain should earn it a higher weight.
	good := &gridPlugin{name: "good", dim: scenario.Dimension{Name: "x", Min: 0, Max: 1023, Step: 1}}
	bad := &gridPlugin{name: "bad", dim: scenario.Dimension{Name: "y", Min: 0, Max: 1023, Step: 1}}
	c := newTestController(t, ControllerConfig{Seed: 4, SeedTests: 10}, good, bad)
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		x := sc.GetOr("x", 0)
		impact := float64(x) / 1023 // only x matters
		return Result{Scenario: sc, Impact: impact}
	})
	runEngine(t, c, runner, 250, 1)
	w := c.PluginWeights()
	if w["good"] <= w["bad"] {
		t.Errorf("fitness weighting did not favor the useful plugin: good=%.4f bad=%.4f", w["good"], w["bad"])
	}
}

func TestDisablePluginFitnessSamplesUniformly(t *testing.T) {
	good := &gridPlugin{name: "good", dim: scenario.Dimension{Name: "x", Min: 0, Max: 1023, Step: 1}}
	bad := &gridPlugin{name: "bad", dim: scenario.Dimension{Name: "y", Min: 0, Max: 1023, Step: 1}}
	c := newTestController(t, ControllerConfig{Seed: 4, SeedTests: 10, DisablePluginFitness: true}, good, bad)
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		return Result{Scenario: sc, Impact: float64(sc.GetOr("x", 0)) / 1023}
	})
	results := runEngine(t, c, runner, 300, 1)
	counts := map[string]int{}
	for _, r := range results {
		counts[r.Generator]++
	}
	g, b := counts["mutate:good"], counts["mutate:bad"]
	if g+b == 0 {
		t.Fatal("no mutations generated")
	}
	ratio := float64(g) / float64(g+b)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("uniform plugin sampling skewed: good ratio %.2f", ratio)
	}
}

func TestTopSetBounded(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 2, TopSetSize: 5})
	runner := &peakRunner{peak: 500, width: 100}
	runEngine(t, c, runner, 100, 1)
	if len(c.Top()) > 5 {
		t.Errorf("|Π| = %d exceeds configured 5", len(c.Top()))
	}
	top := c.Top()
	for i := 1; i < len(top); i++ {
		if top[i].Impact > top[i-1].Impact {
			t.Error("Π not sorted by impact descending")
		}
	}
}

func TestMaxImpactTracksMu(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 2})
	runner := &peakRunner{peak: 500, width: 100}
	results := runEngine(t, c, runner, 60, 1)
	want := 0.0
	for _, r := range results {
		if r.Impact > want {
			want = r.Impact
		}
	}
	if got := c.MaxImpact(); got != want {
		t.Errorf("µ = %v, want %v", got, want)
	}
}

func TestRandomExplorerNoRepeats(t *testing.T) {
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 99, Step: 1})
	ex := NewRandomExplorer(space, 7)
	seen := make(map[string]bool)
	for i := 0; i < 90; i++ {
		sc, gen, ok := ex.Next()
		if !ok {
			break
		}
		if gen != "random" {
			t.Fatalf("generator = %q", gen)
		}
		if seen[sc.Key()] {
			t.Fatalf("random explorer repeated %s", sc.Key())
		}
		seen[sc.Key()] = true
	}
	if len(seen) < 80 {
		t.Errorf("random explorer produced only %d distinct scenarios", len(seen))
	}
}

func TestExhaustiveExplorerCoversSpace(t *testing.T) {
	space := scenario.MustNewSpace(
		scenario.Dimension{Name: "x", Min: 0, Max: 9, Step: 1},
		scenario.Dimension{Name: "y", Min: 0, Max: 4, Step: 1},
	)
	ex := NewExhaustiveExplorer(space)
	if ex.Remaining() != 50 {
		t.Fatalf("Remaining = %d, want 50", ex.Remaining())
	}
	seen := make(map[string]bool)
	for {
		sc, _, ok := ex.Next()
		if !ok {
			break
		}
		seen[sc.Key()] = true
	}
	if len(seen) != 50 {
		t.Errorf("exhaustive covered %d points, want 50", len(seen))
	}
	if _, _, ok := ex.Next(); ok {
		t.Error("exhausted explorer still proposing")
	}
}

func TestCampaignRespectsBudget(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 1})
	runner := &peakRunner{peak: 10, width: 5}
	results := runEngine(t, c, runner, 25, 1)
	if len(results) != 25 {
		t.Errorf("campaign ran %d tests, budget 25", len(results))
	}
	if runner.runs != 25 {
		t.Errorf("runner invoked %d times, want 25", runner.runs)
	}
}

// TestCampaignWithObserver: a serial campaign's observer sees every test
// with consecutive 1-based iterations.
func TestCampaignWithObserver(t *testing.T) {
	c := newTestController(t, ControllerConfig{Seed: 1})
	var iters []int
	eng, err := NewEngine(fakeTarget{Runner: &peakRunner{peak: 10, width: 5}},
		WithExplorer(c), WithBudget(10), WithObserver(func(i int, _ Result) {
			iters = append(iters, i)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 10 || iters[0] != 1 || iters[9] != 10 {
		t.Errorf("observer iterations = %v", iters)
	}
}

// TestSweepMatchesSequential: a list explorer swept by eight workers
// yields, in list order and labelled "exhaustive", exactly what one
// worker yields.
func TestSweepMatchesSequential(t *testing.T) {
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 199, Step: 1})
	var scs []scenario.Scenario
	space.Enumerate(func(sc scenario.Scenario) bool { scs = append(scs, sc); return true })
	runner := RunnerFunc(func(sc scenario.Scenario) Result {
		return Result{Scenario: sc, Impact: float64(sc.GetOr("x", 0))}
	})
	seq := runEngine(t, NewListExplorer(scs), runner, len(scs), 1)
	par := runEngine(t, NewListExplorer(scs), runner, len(scs), 8)
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("swept %d and %d of %d scenarios", len(seq), len(par), len(scs))
	}
	for i := range seq {
		if seq[i].Impact != par[i].Impact || par[i].Scenario.Key() != scs[i].Key() || par[i].Generator != "exhaustive" {
			t.Fatalf("parallel sweep diverged at %d: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestBestSoFarMonotone(t *testing.T) {
	in := []Result{{Impact: 0.1}, {Impact: 0.5}, {Impact: 0.2}, {Impact: 0.9}, {Impact: 0.3}}
	out := BestSoFar(in)
	want := []float64{0.1, 0.5, 0.5, 0.9, 0.9}
	for i := range want {
		if out[i].Impact != want[i] {
			t.Errorf("BestSoFar[%d].Impact = %v, want %v", i, out[i].Impact, want[i])
		}
	}
	if len(BestSoFar(nil)) != 0 {
		t.Error("BestSoFar(nil) should be empty")
	}
}

func TestTestsToImpact(t *testing.T) {
	in := []Result{{Impact: 0.1}, {Impact: 0.5}, {Impact: 0.95}, {Impact: 0.2}}
	if got := TestsToImpact(in, 0.9); got != 3 {
		t.Errorf("TestsToImpact = %d, want 3", got)
	}
	if got := TestsToImpact(in, 0.99); got != 0 {
		t.Errorf("TestsToImpact unreachable = %d, want 0", got)
	}
}

func TestControllerDeterministicGivenSeed(t *testing.T) {
	run := func() []string {
		c := newTestController(t, ControllerConfig{Seed: 77, SeedTests: 5})
		results := runEngine(t, c, &peakRunner{peak: 321, width: 40}, 60, 1)
		keys := make([]string, len(results))
		for i, r := range results {
			keys[i] = r.Scenario.Key()
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic controller at iteration %d: %s vs %s", i, a[i], b[i])
		}
	}
}
