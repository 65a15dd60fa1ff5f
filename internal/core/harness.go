package core

import (
	"slices"
	"time"

	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
)

// Deployment is what the Harness needs from one instantiated system under
// test — a started, warmed-up cluster bound to its own simulation engine
// (HarnessSpec.Build returns one). The harness never looks inside it, just
// as the paper's controller never looks inside the victim. A deployment
// runs one test at a time; the harness's master pool hands every
// concurrent run its own.
type Deployment[R any] interface {
	// Capture takes the post-warm-up snapshot every run starts from. The
	// harness calls it once, right after Build.
	Capture()
	// Restore ends whatever run came before (handing its window memory
	// back) and rolls the deployment back to the captured state with
	// every fault disarmed.
	Restore()
	// Arm attaches the per-run checkers and, when attack is set, activates
	// the scenario's faults. An unarmed run is the attack-free baseline.
	Arm(sc scenario.Scenario, attack bool, extra ...oracle.Checker)
	// Measure runs one measurement window under the given event budget
	// (0 = unlimited), collects the outcome with its target-specific
	// report R, and hands the window's memory back.
	Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (Result, R)
}

// HarnessSpec is everything target-specific a Harness is built from.
type HarnessSpec[K comparable, D any] struct {
	// Name identifies the system under test in reports and benchmarks.
	Name string
	// Plugins are the target's testing-tool plugins; their composed
	// dimensions form the hyperspace an Engine explores by default.
	Plugins []Plugin
	// Config is the target's workload, a tree of scalar structs;
	// FingerprintConfig of it is the ConfigFingerprint.
	Config any
	// ClientsDim names the dimension holding the correct-client count.
	// Impact is relative to the attack-free throughput of the same count,
	// so baselines are measured and memoized per value of it, each on the
	// master Key gives a scenario that sets this dimension alone — which
	// need not be a master any attack run uses (see measureBaseline).
	ClientsDim string
	// Key is the structural identity of the deployment a scenario runs
	// on — everything that shapes the warm-up. Fault parameters are not
	// part of it: they arm at measurement start.
	Key func(sc scenario.Scenario) K
	// Build instantiates, starts and warms up the deployment for a key.
	Build func(key K) D
	// Measure is the window of every run, attack or attack-free baseline.
	Measure time.Duration
	// StepBudget caps the events one attack window may execute (0 =
	// unlimited). It exists to stop scenario-induced storms, so baseline
	// windows, which arm no scenario, run without it.
	StepBudget uint64
	// LatencyRef scales the latency component of the impact metric: a run
	// whose average latency reaches it maxes that component, and impact is
	// 0.8 x throughput collapse + 0.2 x latency inflation. Zero disables
	// the latency component.
	LatencyRef time.Duration
	// ReferenceThroughput, when positive, replaces the per-count baseline
	// as the throughput reference.
	ReferenceThroughput float64
}

// defaultClients is the client count of a scenario that leaves the
// clients dimension out.
const defaultClients = 10

// Harness executes scenarios against one system under test (DESIGN.md
// §8). It owns what is the same for every target: the pool of warm master
// deployments, one per structural key, that every test forks from; the
// attack-free baselines, memoized per client count; impact scoring; the
// campaign phase timers; and the report/traced variants of a run. A
// target supplies a HarnessSpec and a Deployment and, by embedding the
// harness, is a Target with every execution capability the Engine
// detects. Harness is safe for concurrent use by parallel campaign
// workers.
type Harness[K comparable, D Deployment[R], R any] struct {
	spec      HarnessSpec[K, D]
	masters   ForkCache[K, D]
	baselines BaselineCache
	phases    PhaseTimes
}

// NewHarness returns a harness over the spec.
func NewHarness[K comparable, D Deployment[R], R any](spec HarnessSpec[K, D]) *Harness[K, D, R] {
	return &Harness[K, D, R]{spec: spec}
}

// Name implements Target.
func (h *Harness[K, D, R]) Name() string { return h.spec.Name }

// Plugins implements Target.
func (h *Harness[K, D, R]) Plugins() []Plugin { return slices.Clone(h.spec.Plugins) }

// ConfigFingerprint implements ConfigFingerprinter: a durable campaign
// records it in its manifest so a resume with a drifted workload
// (different measure window, step budget, cluster shape) fails fast
// instead of replaying a different system.
func (h *Harness[K, D, R]) ConfigFingerprint() string {
	return FingerprintConfig(h.spec.Config)
}

// Run implements Runner: a cold run, on a deployment built for this test
// alone. It takes exactly the steps of a forked run's first fork, so
// forked == cold holds by construction there, and by test for reused
// masters.
func (h *Harness[K, D, R]) Run(sc scenario.Scenario) Result {
	res, _ := h.RunReport(sc)
	return res
}

// RunFork implements Snapshotter: execute the scenario by forking the
// warm master of its population. Identical to Run — trace, metrics,
// oracle verdicts — at a fraction of the cost.
func (h *Harness[K, D, R]) RunFork(sc scenario.Scenario) Result {
	res, _ := h.RunForkReport(sc)
	return res
}

// RunForkWorker implements WorkerSnapshotter, which the benchmark still
// names: the pool is the one checkout for every worker count.
func (h *Harness[K, D, R]) RunForkWorker(sc scenario.Scenario, _ int) Result {
	return h.RunFork(sc)
}

// RunReport executes the scenario cold and returns both the impact
// result and the target's detailed report.
func (h *Harness[K, D, R]) RunReport(sc scenario.Scenario) (Result, R) {
	return h.runScored(sc, false)
}

// RunForkReport is RunReport through the snapshot/fork path.
func (h *Harness[K, D, R]) RunForkReport(sc scenario.Scenario) (Result, R) {
	return h.runScored(sc, true)
}

// RunTraced executes the scenario cold with a trace recorder attached
// for the measurement window and returns the oracle-event stream
// alongside the result, in deterministic simulation order.
func (h *Harness[K, D, R]) RunTraced(sc scenario.Scenario) (Result, R, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := h.runScored(sc, false, rec)
	return res, rep, rec.Events()
}

// RunTracedFork is RunTraced through the snapshot/fork path; the
// determinism tests compare its stream against RunTraced's.
func (h *Harness[K, D, R]) RunTracedFork(sc scenario.Scenario) (Result, R, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := h.runScored(sc, true, rec)
	return res, rep, rec.Events()
}

func (h *Harness[K, D, R]) runScored(sc scenario.Scenario, pooled bool, extra ...oracle.Checker) (Result, R) {
	res, rep := h.Execute(sc, true, pooled, extra...)
	return h.score(sc, res), rep
}

// Execute runs the scenario once, unscored. An attack run arms the
// scenario's faults and measures the full window under the step budget;
// an attack-free run arms nothing and measures the baseline window.
// pooled checks the population's master out of the pool (building it when
// none is free) and returns it afterwards; otherwise the run gets a
// master of its own and drops it.
func (h *Harness[K, D, R]) Execute(sc scenario.Scenario, attack, pooled bool, extra ...oracle.Checker) (Result, R) {
	key := h.spec.Key(sc)
	// A baseline's whole cost, including a master build it triggers, is
	// the baseline phase's (measureBaseline times it); only attack runs
	// accrue to the other phases.
	build := func() D { return h.buildMaster(key, attack) }
	if !pooled {
		return h.forkRun(build(), sc, attack, extra...)
	}
	d := h.masters.Acquire(key, build)
	defer h.masters.Release(key, d)
	return h.forkRun(d, sc, attack, extra...)
}

// buildMaster builds, warms up and captures the master for a key.
func (h *Harness[K, D, R]) buildMaster(key K, accrue bool) D {
	start := metrics.StartWatch()
	d := h.spec.Build(key)
	warm := start.Elapsed()
	d.Capture()
	if accrue {
		h.phases.AddWarmup(warm)
		h.phases.AddFork(start.Elapsed() - warm)
	}
	return d
}

// forkRun rewinds a checked-out master to its capture, arms the scenario
// and measures: the one execution path of every run.
func (h *Harness[K, D, R]) forkRun(d D, sc scenario.Scenario, attack bool, extra ...oracle.Checker) (Result, R) {
	budget := h.spec.StepBudget
	if !attack {
		budget = 0
	}
	forkStart := metrics.StartWatch()
	d.Restore()
	d.Arm(sc, attack, extra...)
	if attack {
		h.phases.AddFork(forkStart.Elapsed())
	}
	runStart := metrics.StartWatch()
	res, rep := d.Measure(sc, h.spec.Measure, budget)
	if attack {
		h.phases.AddRun(runStart.Elapsed())
	}
	return res, rep
}

func (h *Harness[K, D, R]) clients(sc scenario.Scenario) int64 {
	return sc.GetOr(h.spec.ClientsDim, defaultClients)
}

// score computes the impact of a measured result against the memoized
// attack-free baseline of its client count.
func (h *Harness[K, D, R]) score(sc scenario.Scenario, res Result) Result {
	baseline := h.Baseline(h.clients(sc))
	analyzeStart := metrics.StartWatch()
	defer func() { h.phases.AddAnalyze(analyzeStart.Elapsed()) }()
	res.BaselineThroughput = baseline
	if baseline <= 0 {
		return res
	}
	ref := baseline
	if h.spec.ReferenceThroughput > 0 {
		ref = h.spec.ReferenceThroughput
	}
	tputImpact := min(max(1-res.Throughput/ref, 0), 1)
	if h.spec.LatencyRef > 0 {
		latImpact := min(float64(res.AvgLatency)/float64(h.spec.LatencyRef), 1)
		res.Impact = 0.8*tputImpact + 0.2*latImpact
	} else {
		res.Impact = tputImpact
	}
	return res
}

// Baseline returns the attack-free throughput for a correct-client
// count, measuring and caching it on first use. Concurrent callers for
// the same count share a single measurement; different counts measure in
// parallel.
func (h *Harness[K, D, R]) Baseline(clients int64) float64 {
	return h.baselines.Get(clients, h.measureBaseline)
}

// measureBaseline forks the master of the count's baseline population —
// the scenario that sets ClientsDim alone, so every other structural axis
// takes what Key makes of its absence (one malicious client on PBFT) — and
// arms nothing: faults arm at measurement start, so the warmed capture is
// already fault-neutral. Attack runs of that population share the master;
// when none has run, the baseline builds it, and its whole cost is the
// baseline phase's. On pbft-fig2 three of the 37 masters exist only for a
// baseline (34 attack populations over 22 correct counts), and the
// benchmark's harness.masters_built, which counts attack populations, does
// not see them.
func (h *Harness[K, D, R]) measureBaseline(clients int64) float64 {
	start := metrics.StartWatch()
	defer func() { h.phases.AddBaseline(start.Elapsed()) }()
	empty := scenario.MustNewSpace(scenario.Dimension{
		Name: h.spec.ClientsDim, Min: clients, Max: clients, Step: 1,
	}).New(nil)
	res, _ := h.Execute(empty, false, true)
	return res.Throughput
}

// Warm implements Warmer: measure a batch's missing baselines
// concurrently, so parallel workers neither duplicate them nor serialize
// behind one another.
func (h *Harness[K, D, R]) Warm(batch []scenario.Scenario) {
	counts := make([]int64, len(batch))
	for i, sc := range batch {
		counts[i] = h.clients(sc)
	}
	h.baselines.Warm(counts, h.measureBaseline)
}

// Prepare implements Preparer: it readies the scenario's per-population
// artifacts — the captured master and the baseline — ahead of the run, so
// a parallel campaign overlaps the next population's build with the
// current one's measurement. Prepare changes no observable result: the
// master is the same deterministic build the run would do, and the
// baseline the same memoized measurement.
func (h *Harness[K, D, R]) Prepare(sc scenario.Scenario) {
	key := h.spec.Key(sc)
	h.masters.Prepare(key, func() D { return h.buildMaster(key, true) })
	h.Baseline(h.clients(sc))
}

// Phases returns the accumulated campaign-phase breakdown (see
// PhaseTimes). The accumulators live for the harness's lifetime; callers
// isolate campaigns by constructing a fresh target per run.
func (h *Harness[K, D, R]) Phases() PhaseBreakdown { return h.phases.Breakdown() }

// FlushMasters discards every parked warm master, so measurements that
// follow are not taxed by GC marking of deployments they will never fork
// from; the next forked run transparently rebuilds.
func (h *Harness[K, D, R]) FlushMasters() { h.masters.DropAll() }

// EachMaster calls fn for every parked master (test and diagnostics
// hook; fn must not call back into the harness).
func (h *Harness[K, D, R]) EachMaster(fn func(K, D)) { h.masters.Each(fn) }
