package core

import (
	"slices"
	"time"

	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/slab"
)

// Deployment is what the Harness needs from one instantiated system under
// test — a started, warmed-up cluster bound to its own simulation engine
// (HarnessSpec.Build returns one). The harness never looks inside it, just
// as the paper's controller never looks inside the victim. A deployment
// runs one test at a time; the harness's master pool hands every
// concurrent run its own. A deployment embeds a Rig, whose Capture and
// Restore it promotes.
type Deployment[R any] interface {
	// Capture takes the post-warm-up snapshot every run starts from. The
	// harness calls it once, right after Build.
	Capture()
	// Restore ends whatever run came before (handing its window memory
	// back) and rolls the deployment back to the captured state with
	// every fault disarmed.
	Restore()
	// Trace records the oracle events of the next window into rec (nil
	// records nothing, oracle.Off turns the oracle off); the next Restore
	// stops it.
	Trace(rec *oracle.Recorder)
	// Arm activates the scenario's faults when attack is set. An unarmed
	// run is the attack-free baseline.
	Arm(sc scenario.Scenario, attack bool)
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
	// dimensions form the hyperspace a campaign's explorer searches.
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
}

// defaultClients is the client count of a scenario that leaves the
// clients dimension out.
const defaultClients = 10

// Harness executes scenarios against one system under test (DESIGN.md
// §14). It owns what is the same for every target: the pool of warm master
// deployments, one per structural key, that every test forks from; the
// slab pool they lease window memory from; the attack-free baselines,
// memoized per client count; impact scoring; the campaign phase timers;
// and the report/traced variants of a run. A target supplies a
// HarnessSpec and a Deployment and, by embedding the harness, is a Target
// and a Preparer. Harness is safe for concurrent use by parallel campaign
// workers.
type Harness[K comparable, D Deployment[R], R any] struct {
	spec      HarnessSpec[K, D]
	masters   ForkCache[K, D]
	baselines BaselineCache
	phases    PhaseTimes
	// pool lends every deployment the message memory of its measurement
	// window; it comes back when the run parks (DESIGN.md §20).
	pool slab.Pool
}

// NewHarness returns a harness over the spec.
func NewHarness[K comparable, D Deployment[R], R any](spec HarnessSpec[K, D]) *Harness[K, D, R] {
	return &Harness[K, D, R]{spec: spec}
}

// Name implements Target.
func (h *Harness[K, D, R]) Name() string { return h.spec.Name }

// Pool returns the slab pool every deployment of the harness leases its
// window memory from.
func (h *Harness[K, D, R]) Pool() *slab.Pool { return &h.pool }

// Plugins implements Target.
func (h *Harness[K, D, R]) Plugins() []Plugin { return slices.Clone(h.spec.Plugins) }

// ConfigFingerprint implements ConfigFingerprinter: a durable campaign
// records it in its manifest so a resume with a drifted workload
// (different measure window, step budget, cluster shape) fails fast
// instead of replaying a different system.
func (h *Harness[K, D, R]) ConfigFingerprint() string {
	return FingerprintConfig(h.spec.Config)
}

// Run implements Runner: it forks the scenario's population, checking
// its warm master out of the pool (building, warming and capturing one
// when none is free), and scores the window against the baseline.
func (h *Harness[K, D, R]) Run(sc scenario.Scenario) Result {
	res, _ := h.RunReport(sc)
	return res
}

// RunFork is Run, for benchmark/, which still names it.
func (h *Harness[K, D, R]) RunFork(sc scenario.Scenario) Result { return h.Run(sc) }

// RunForkWorker is Run, for benchmark/'s WorkerSnapshotter.
func (h *Harness[K, D, R]) RunForkWorker(sc scenario.Scenario, _ int) Result { return h.Run(sc) }

// RunReport is Run with the target's detailed report.
func (h *Harness[K, D, R]) RunReport(sc scenario.Scenario) (Result, R) {
	return h.runScored(sc, nil)
}

// RunForkReport is RunReport, for benchmark/, which still names it.
func (h *Harness[K, D, R]) RunForkReport(sc scenario.Scenario) (Result, R) { return h.RunReport(sc) }

// RunTraced is RunReport with the measurement window traced: it returns
// the oracle-event stream alongside the result, in deterministic
// simulation order.
func (h *Harness[K, D, R]) RunTraced(sc scenario.Scenario) (Result, R, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := h.runScored(sc, rec)
	return res, rep, rec.Events()
}

// RunTracedFork is RunTraced, for benchmark/, which still names it.
func (h *Harness[K, D, R]) RunTracedFork(sc scenario.Scenario) (Result, R, []oracle.Event) {
	return h.RunTraced(sc)
}

// runScored is an attack run, scored, its window traced into rec when rec
// is not nil.
func (h *Harness[K, D, R]) runScored(sc scenario.Scenario, rec *oracle.Recorder) (Result, R) {
	res, rep := h.execute(sc, true, rec)
	return h.score(sc, res), rep
}

// Execute runs the scenario once, unscored, on its population's master,
// checked out of the pool and returned afterwards. An attack run arms the
// scenario's faults and measures the full window under the step budget;
// an attack-free run arms nothing and measures the baseline window.
func (h *Harness[K, D, R]) Execute(sc scenario.Scenario, attack bool) (Result, R) {
	return h.execute(sc, attack, nil)
}

func (h *Harness[K, D, R]) execute(sc scenario.Scenario, attack bool, rec *oracle.Recorder) (Result, R) {
	key := h.spec.Key(sc)
	// A baseline's whole cost, including a master build it triggers, is
	// the baseline phase's (measureBaseline times it); only attack runs
	// accrue to the other phases.
	d := h.masters.Acquire(key, func() D { return h.buildMaster(key, attack) })
	defer h.masters.Release(key, d)
	return h.forkRun(d, sc, attack, rec)
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
// and measures: the one execution path of every run. A master's first
// run takes exactly the steps of every later one (build, capture,
// restore, arm, measure), so a fork of a reused master equals the first
// run of a fresh one, by test (internal/core/targettest).
func (h *Harness[K, D, R]) forkRun(d D, sc scenario.Scenario, attack bool, rec *oracle.Recorder) (Result, R) {
	budget := h.spec.StepBudget
	if !attack {
		budget = 0
	}
	forkStart := metrics.StartWatch()
	d.Restore()
	d.Trace(rec)
	d.Arm(sc, attack)
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
	tputImpact := min(max(1-res.Throughput/baseline, 0), 1)
	if h.spec.LatencyRef > 0 {
		latImpact := min(float64(res.AvgLatency)/float64(h.spec.LatencyRef), 1)
		res.Impact = float64(0.8*tputImpact) + float64(0.2*latImpact)
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
// not see them. Only the throughput is kept, so the window runs with the
// oracle off (oracle.Off); Execute's unarmed runs keep their verdicts.
func (h *Harness[K, D, R]) measureBaseline(clients int64) float64 {
	start := metrics.StartWatch()
	defer func() { h.phases.AddBaseline(start.Elapsed()) }()
	empty := scenario.MustNewSpace(scenario.Dimension{
		Name: h.spec.ClientsDim, Min: clients, Max: clients, Step: 1,
	}).New(nil)
	res, _ := h.execute(empty, false, oracle.Off)
	return res.Throughput
}

// Warm implements the retired Warmer, which benchmark/ still names:
// measure a batch's missing baselines concurrently.
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
