// Package core implements AVD's Test Controller: the feedback-driven
// exploration of the test-parameter hyperspace described in §3 of the
// paper (Algorithm 1), alongside the random and exhaustive baselines it
// is evaluated against.
//
// The controller keeps Π (the set of top-impact executed scenarios), Ψ
// (the queue of pending scenarios), Ω (the history of executed tests) and
// µ (the maximum observed impact). Each generation step samples a parent
// from Π weighted by impact, samples a plugin weighted by its historical
// fitness gain (in the spirit of Fitnex), computes
//
//	mutateDistance = 1 − parent.impact/µ
//
// and asks the plugin to mutate the parent by that distance. Children
// already in Ω or Ψ are discarded. Every result whose behavior digest is
// new to the campaign also joins a novelty archive (Corpus); once µ
// stalls, every other proposal mutates an archive entry instead of Π.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// Result is the measured outcome of executing one test scenario.
type Result struct {
	Scenario scenario.Scenario
	// Impact is the normalized damage in [0,1]: 1 − throughput/baseline,
	// clamped at 0 (the paper's metric is the raw throughput of correct
	// clients; normalizing makes impacts comparable across client
	// counts).
	Impact float64
	// Throughput is the correct clients' completed requests per second.
	Throughput float64
	// BaselineThroughput is the no-attack throughput of the same
	// workload.
	BaselineThroughput float64
	// AvgLatency is the correct clients' mean request latency.
	AvgLatency time.Duration
	// CrashedReplicas counts replicas that halted during the test.
	CrashedReplicas int
	// ViewChanges counts view installations summed over replicas.
	ViewChanges uint64
	// Generator records which exploration step produced the scenario
	// (e.g. "seed", "random", "mutate:maccorrupt").
	Generator string
	// Violations lists the protocol invariants the run's oracles saw
	// broken, aggregated per invariant. Empty for runs whose damage is
	// purely quantitative (throughput/latency): a scenario can be highly
	// impactful without provably violating safety, and vice versa.
	Violations []oracle.Violation
	// InjectedCrashes / Restarts count crash-restart fault activity
	// during the run (the crashrestart plugins drive them).
	InjectedCrashes uint64
	Restarts        uint64
	// Coverage is the run's abstract-timeline coverage digest: the
	// deterministic fold of the oracle event stream (commit/leader
	// transitions, crash/restart markers) that coverage-guided
	// exploration uses as execution feedback (DESIGN.md §16). Zero when
	// the run panicked before measuring or the result was decoded from a
	// pre-coverage checkpoint.
	Coverage oracle.Coverage
	// Error is non-empty when the test itself misbehaved — it panicked
	// (the recovered stack is recorded here) or tripped the hung-test
	// watchdog — and the campaign degraded it to an error result instead
	// of aborting. The metrics of an errored result are untrustworthy.
	Error string
	// Hung marks a test that exhausted its step budget: virtual time
	// stopped advancing under an event storm and the watchdog cut it off.
	Hung bool
}

// Errored reports whether the test misbehaved (panicked or hung) rather
// than measuring the scenario.
func (r Result) Errored() bool { return r.Error != "" || r.Hung }

// Violated reports whether the run broke the named invariant.
func (r Result) Violated(invariant string) bool {
	return oracle.Violated(r.Violations, invariant)
}

// Runner executes a scenario and measures its impact. Implementations
// must be deterministic functions of the scenario (plus their own fixed
// seed), as tests in the paper are independent and re-initialized.
type Runner interface {
	Run(sc scenario.Scenario) Result
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(sc scenario.Scenario) Result

// Run implements Runner.
func (f RunnerFunc) Run(sc scenario.Scenario) Result { return f(sc) }

// WorkerSnapshotter is a retired capability: every test forks through
// Target.Run, the engine looks for nothing else, and Harness.RunFork and
// Harness.RunForkWorker just call Run. The interface remains only because
// benchmark/ still names it (ROADMAP item 2 has the removal note).
type WorkerSnapshotter interface {
	// RunFork executes the scenario exactly as Run does.
	RunFork(sc scenario.Scenario) Result
	// RunForkWorker executes the scenario exactly as Run does; worker is
	// ignored.
	RunForkWorker(sc scenario.Scenario, worker int) Result
}

// Preparer is the prefetch capability of the pipelined campaign executor
// (DESIGN.md §14): Prepare makes the expensive per-population artifacts a
// scenario needs — the warm master deployment and the baseline
// measurement — ready ahead of its run, so the engine can overlap the
// next test's master build+warmup with the current test's measurement.
// Prepare must be safe for concurrent use, idempotent, and free of
// observable effects on results: a campaign with prefetching is
// bit-for-bit the campaign without it, only faster.
type Preparer interface {
	Prepare(sc scenario.Scenario)
}

// Plugin mediates between the controller and one testing tool (§3): it
// owns the tool's hyperspace dimensions and knows how to mutate them by a
// given distance. The shipped tools are constructors in internal/plugin
// and internal/raftsim.
type Plugin struct {
	// Name identifies the plugin in reports and fitness statistics.
	Name string
	// Dims are the hyperspace axes the plugin controls.
	Dims []scenario.Dimension
	// Mutate returns a child scenario at roughly the given distance from
	// the parent along the plugin's dimensions. distance is in [0,1]:
	// 0 asks for the smallest possible change, 1 for an arbitrary jump.
	Mutate func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario
}

// Explorer proposes scenarios and learns from results; the AVD
// controller, random search and exhaustive sweeps all implement it.
type Explorer interface {
	// Next proposes the next scenario; ok is false when the explorer is
	// out of proposals (exhausted space or budget).
	Next() (sc scenario.Scenario, generator string, ok bool)
	// Record feeds the measured result of a proposed scenario back.
	Record(res Result)
}

// firstUnseen scans space in grid order for the first point whose
// compact key is not in seen; ok is false only when every point has been
// proposed. The Controller uses it as the deterministic last resort once
// rejection sampling keeps colliding, so it honors the Explorer contract
// of reporting exhaustion only when the space is truly drained.
func firstUnseen(space *scenario.Space, seen map[scenario.CompactKey]bool) (scenario.Scenario, bool) {
	var out scenario.Scenario
	found := false
	space.Enumerate(func(sc scenario.Scenario) bool {
		if seen[sc.Compact()] {
			return true
		}
		out, found = sc, true
		return false
	})
	return out, found
}

// Space builds the composed hyperspace of a plugin set.
func Space(plugins ...Plugin) (*scenario.Space, error) {
	var dims []scenario.Dimension
	for _, p := range plugins {
		dims = append(dims, p.Dims...)
	}
	return scenario.NewSpace(dims...)
}

// ControllerConfig tunes the AVD controller.
type ControllerConfig struct {
	// TopSetSize caps |Π| (default 10).
	TopSetSize int
	// SeedTests is how many initial random tests are executed before the
	// guided phase begins ("players begin by firing random shots", §3).
	// Default 10.
	SeedTests int
	// Seed drives all controller randomness.
	Seed int64
	// DisablePluginFitness turns off the fitness-gain weighting of
	// plugin selection (line 2 of Algorithm 1), sampling plugins
	// uniformly instead; used by the A3 ablation.
	DisablePluginFitness bool
	// StagnationWindow triggers diversification: after this many
	// executed tests without µ improving, every other generated
	// scenario mutates a novelty-archive entry instead of a Π parent (a
	// random probe while the archive is empty), so the search leaves an
	// impact plateau along behavior it has not yet exploited. Zero uses
	// the default 12; negative disables diversification.
	StagnationWindow int
}

func (c *ControllerConfig) applyDefaults() {
	if c.TopSetSize <= 0 {
		c.TopSetSize = 10
	}
	if c.SeedTests <= 0 {
		c.SeedTests = 10
	}
	if c.StagnationWindow == 0 {
		c.StagnationWindow = 12
	}
}

// maxGenerationRetries bounds the attempts to generate an unseen child
// before falling back to a random scenario.
const maxGenerationRetries = 16

// pluginStat tracks one plugin's historical benefit: how often it was
// selected and how much impact its mutations gained over their parents.
type pluginStat struct {
	selections int
	totalGain  float64
}

// weight is the sampling weight: average gain with Laplace smoothing so
// unproven plugins keep being explored.
func (s pluginStat) weight() float64 {
	return (0.1 + s.totalGain) / float64(1+s.selections)
}

// pendingMeta remembers how a queued scenario was generated, for credit
// assignment when its result arrives.
type pendingMeta struct {
	generator    string
	pluginIdx    int // -1 for random/seed
	parentImpact float64
}

// Controller is the AVD test controller (Algorithm 1) with a novelty
// archive (DESIGN.md §14). It is not safe for concurrent use.
type Controller struct {
	cfg     ControllerConfig
	space   *scenario.Space
	plugins []Plugin
	rng     *rand.Rand

	top      []Result                            // Π, sorted by impact descending
	history  map[scenario.CompactKey]bool        // Ω keys (includes queued, per line 5)
	queue    []scenario.Scenario                 // Ψ
	meta     map[scenario.CompactKey]pendingMeta // generation metadata by scenario key
	maxSeen  float64                             // µ
	stats    []pluginStat
	executed int
	archive  *Corpus // results whose Behaviors digest was new to the campaign

	// Diversification state: when exploitation stops improving µ, every
	// other generated scenario mutates an archive entry.
	lastImprovement int
	probeToggle     bool
}

// NewController builds the controller over the plugins' composed space.
func NewController(cfg ControllerConfig, plugins ...Plugin) (*Controller, error) {
	cfg.applyDefaults()
	if len(plugins) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one plugin")
	}
	space, err := Space(plugins...)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:     cfg,
		space:   space,
		plugins: plugins,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		history: make(map[scenario.CompactKey]bool),
		meta:    make(map[scenario.CompactKey]pendingMeta),
		stats:   make([]pluginStat, len(plugins)),
		archive: NewCorpus(),
	}, nil
}

var _ Explorer = (*Controller)(nil)

// Corpus returns the controller's novelty archive, for reporting.
func (c *Controller) Corpus() *Corpus { return c.archive }

// Next implements Explorer: it drains Ψ, refilling it via Algorithm 1
// when empty. Like RandomExplorer, it reports ok=false only once every
// point of the space has been proposed.
func (c *Controller) Next() (scenario.Scenario, string, bool) {
	if len(c.queue) == 0 {
		c.generate()
	}
	if len(c.queue) == 0 {
		return scenario.Scenario{}, "", false
	}
	sc := c.queue[0]
	c.queue = c.queue[1:]
	m := c.meta[sc.Compact()]
	return sc, m.generator, true
}

// generate enqueues one new scenario (Algorithm 1 lines 1-7), or none
// once the space is drained.
func (c *Controller) generate() {
	if uint64(len(c.history)) >= c.space.Size() {
		return
	}
	// Bootstrap phase: random shots to learn the board.
	if len(c.top) == 0 || c.executed < c.cfg.SeedTests {
		c.enqueueRandom("seed")
		return
	}
	// Diversification: exploitation has stagnated, so every other
	// proposal follows novel behavior instead of impact and the search
	// cannot sit on a local plateau forever.
	if c.cfg.StagnationWindow > 0 && c.executed-c.lastImprovement > c.cfg.StagnationWindow {
		c.probeToggle = !c.probeToggle
		if c.probeToggle {
			c.enqueueNovel()
			return
		}
	}
	for attempt := 0; attempt < maxGenerationRetries; attempt++ {
		parent := c.sampleParent()                                             // line 1
		pluginIdx := c.samplePlugin()                                          // line 2
		distance := 1 - parent.Impact/c.maxImpactSafe()                        // line 3
		child := c.plugins[pluginIdx].Mutate(parent.Scenario, distance, c.rng) // line 4
		m := pendingMeta{generator: "mutate:" + c.plugins[pluginIdx].Name, pluginIdx: pluginIdx, parentImpact: parent.Impact}
		if c.enqueue(child, m) { // lines 5-6: not in Ω (which also covers Ψ and Π)
			return
		}
	}
	// The neighborhood of Π is exhausted; fall back to a random probe.
	c.enqueueRandom("random")
}

// enqueueNovel mutates an archive entry drawn by energy (Corpus.Pick),
// or falls back to a random probe while the archive is empty or its
// neighborhood keeps colliding. A fresh entry gets small steps around
// the behavior it found; one drawn many times drifts further out. The
// plugin is drawn uniformly and its child trains no fitness: the parent
// was not chosen by impact, so the child's gain over it says nothing
// about the plugin.
func (c *Controller) enqueueNovel() {
	for attempt := 0; c.archive.Len() > 0 && attempt < maxGenerationRetries; attempt++ {
		parent := c.archive.Pick(c.rng)
		p := c.plugins[c.rng.Intn(len(c.plugins))]
		distance := 0.1 + float64(0.2*c.rng.Float64()) + float64(0.05*float64(min(parent.Picks, 8)))
		child := p.Mutate(parent.Result.Scenario, distance, c.rng)
		if c.enqueue(child, pendingMeta{generator: "archive:" + p.Name, pluginIdx: -1}) {
			return
		}
	}
	c.enqueueRandom("probe")
}

// enqueueRandom proposes an unseen uniform-random point, scanning the
// grid once rejection sampling keeps colliding (the space is then
// nearly drained), so a proposal exists until every point has one.
func (c *Controller) enqueueRandom(generator string) {
	m := pendingMeta{generator: generator, pluginIdx: -1}
	for attempt := 0; attempt < maxGenerationRetries*8; attempt++ {
		if c.enqueue(c.space.Random(c.rng), m) {
			return
		}
	}
	if sc, ok := firstUnseen(c.space, c.history); ok {
		c.enqueue(sc, m)
	}
}

// enqueue appends sc to Ψ unless it is already in Ω (Algorithm 1 lines
// 5-6) and reports whether it did.
func (c *Controller) enqueue(sc scenario.Scenario, m pendingMeta) bool {
	key := sc.Compact()
	if c.history[key] {
		return false
	}
	c.history[key] = true
	c.queue = append(c.queue, sc)
	c.meta[key] = m
	return true
}

func (c *Controller) maxImpactSafe() float64 {
	if c.maxSeen <= 0 {
		return 1
	}
	return c.maxSeen
}

// sampleParent draws from Π weighted by impact ("sampled from the set Π
// based on the impact").
func (c *Controller) sampleParent() Result {
	const eps = 0.05 // keep zero-impact parents reachable
	total := 0.0
	for _, r := range c.top {
		total += r.Impact + eps
	}
	x := c.rng.Float64() * total
	for _, r := range c.top {
		x -= r.Impact + eps
		if x <= 0 {
			return r
		}
	}
	return c.top[len(c.top)-1]
}

// samplePlugin draws a plugin weighted by historical fitness gain
// (line 2; "if a plugin yields an increase in impact over the parent
// whenever it is selected, then it will be selected more often").
func (c *Controller) samplePlugin() int {
	if len(c.plugins) == 1 {
		return 0
	}
	if c.cfg.DisablePluginFitness {
		return c.rng.Intn(len(c.plugins))
	}
	total := 0.0
	for i := range c.plugins {
		total += c.stats[i].weight()
	}
	x := c.rng.Float64() * total
	for i := range c.plugins {
		x -= c.stats[i].weight()
		if x <= 0 {
			return i
		}
	}
	return len(c.plugins) - 1
}

// Record implements Explorer: it folds an executed result into Π, µ,
// the plugin fitness statistics and the novelty archive.
func (c *Controller) Record(res Result) {
	c.executed++
	if res.Error == "" || res.Hung {
		// A run that panicked measured nothing; a hung one (an event
		// storm) still showed behavior.
		c.archive.Add(res)
	}
	key := res.Scenario.Compact()
	if m, ok := c.meta[key]; ok {
		delete(c.meta, key)
		if m.pluginIdx >= 0 {
			c.stats[m.pluginIdx].selections++
			if gain := res.Impact - m.parentImpact; gain > 0 {
				c.stats[m.pluginIdx].totalGain += gain
			}
		}
	}
	if res.Impact > c.maxSeen+1e-9 {
		c.maxSeen = res.Impact
		c.lastImprovement = c.executed
	}
	// Insert into Π, keeping it sorted by impact descending and bounded.
	pos := len(c.top)
	for i, r := range c.top {
		if res.Impact > r.Impact {
			pos = i
			break
		}
	}
	c.top = append(c.top, Result{})
	copy(c.top[pos+1:], c.top[pos:])
	c.top[pos] = res
	if len(c.top) > c.cfg.TopSetSize {
		c.top = c.top[:c.cfg.TopSetSize]
	}
}

// --- Baseline explorers -----------------------------------------------------

// RandomExplorer samples the space uniformly without feedback — the
// baseline AVD is compared against in Figure 2.
type RandomExplorer struct {
	space *scenario.Space
	rng   *rand.Rand
	seen  map[scenario.CompactKey]bool
}

// NewRandomExplorer returns a random explorer over space.
func NewRandomExplorer(space *scenario.Space, seed int64) *RandomExplorer {
	return &RandomExplorer{
		space: space,
		rng:   rand.New(rand.NewSource(seed)),
		seen:  make(map[scenario.CompactKey]bool),
	}
}

var _ Explorer = (*RandomExplorer)(nil)

// Next implements Explorer. It reports ok=false only when the space is
// genuinely exhausted (every point proposed once): rejection sampling
// retries collisions indefinitely, which terminates because at least one
// unseen point remains.
func (r *RandomExplorer) Next() (scenario.Scenario, string, bool) {
	if uint64(len(r.seen)) >= r.space.Size() {
		return scenario.Scenario{}, "", false
	}
	for {
		sc := r.space.Random(r.rng)
		key := sc.Compact()
		if r.seen[key] {
			continue
		}
		r.seen[key] = true
		return sc, "random", true
	}
}

// Record implements Explorer (random search ignores feedback).
func (r *RandomExplorer) Record(Result) {}

// ExhaustiveExplorer enumerates the whole space in grid order, as used to
// expose the hyperspace structure of Figure 3.
type ExhaustiveExplorer struct {
	scenarios []scenario.Scenario
	next      int
}

// NewExhaustiveExplorer returns an explorer visiting every point of
// space once.
func NewExhaustiveExplorer(space *scenario.Space) *ExhaustiveExplorer {
	e := &ExhaustiveExplorer{}
	space.Enumerate(func(sc scenario.Scenario) bool {
		e.scenarios = append(e.scenarios, sc)
		return true
	})
	return e
}

// NewListExplorer returns an explorer visiting the given scenarios once,
// in order — a sweep over a hand-picked grid such as Figure 3's.
func NewListExplorer(scs []scenario.Scenario) *ExhaustiveExplorer {
	return &ExhaustiveExplorer{scenarios: scs}
}

var _ Explorer = (*ExhaustiveExplorer)(nil)

// Next implements Explorer.
func (e *ExhaustiveExplorer) Next() (scenario.Scenario, string, bool) {
	if e.next >= len(e.scenarios) {
		return scenario.Scenario{}, "", false
	}
	sc := e.scenarios[e.next]
	e.next++
	return sc, "exhaustive", true
}

// Record implements Explorer.
func (e *ExhaustiveExplorer) Record(Result) {}
