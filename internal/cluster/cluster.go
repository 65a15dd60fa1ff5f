// Package cluster is AVD's deployment harness: it instantiates a test
// scenario as a full PBFT deployment over the simulated network (the
// stand-in for the paper's Emulab testbed), runs a warmup plus a
// measurement window, and computes the scenario's impact as the
// throughput/latency observed by the correct clients (§3: "the metric
// used by AVD to assess the impact of a test is the impact on the
// correct, unmodified nodes").
package cluster

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Workload fixes everything about a test that is not a hyperspace
// dimension: protocol configuration, network model, timing, seeds.
//
// The default timeouts are compressed ~10x relative to the paper's
// deployment (500 ms view-change timer instead of 5 s) so that a
// measurement window of a few virtual seconds spans several
// timer/view-change cycles; EXPERIMENTS.md discusses the scaling. The
// slow-primary experiment (cmd/slowprimary) uses the paper's real 5 s
// timer, where the 0.2 req/s result emerges exactly.
type Workload struct {
	// PBFT is the protocol configuration shared by all replicas.
	PBFT pbft.Config
	// Net is the simulated network model.
	Net simnet.Config
	// Seed drives all simulation randomness; a test is a deterministic
	// function of (Workload, Scenario).
	Seed int64
	// Warmup runs before measurement starts.
	Warmup time.Duration
	// Measure is the measurement window over which throughput and
	// latency are computed.
	Measure time.Duration
	// BaselineMeasure, when positive, is the measurement window for
	// attack-free baseline measurements; zero means Measure. Baselines
	// estimate steady-state throughput of a warm, fault-free cluster — a
	// far less noisy quantity than an attacked run — so campaign drivers
	// (cmd/bench, cmd/fig2) shorten this window to keep the baseline
	// phase off the critical path. Zero keeps baselines on the full
	// Measure window.
	BaselineMeasure time.Duration
	// Correct configures the correct closed-loop clients.
	Correct pbft.ClientConfig
	// Malicious configures the MAC-corrupting clients.
	Malicious pbft.ClientConfig
	// MaskBits is the width of the MAC-corruption mask (12 in the
	// paper).
	MaskBits uint
	// BinaryMask disables the Gray decoding of the mac_mask coordinate
	// (ablation A1).
	BinaryMask bool
	// CrashOnBadReproposal applies the modeled view-change crash defect
	// (see internal/pbft); the attacked implementation had it, so the
	// default workload enables it.
	CrashOnBadReproposal bool
	// LatencyRef scales the latency component of the impact metric: a
	// scenario whose average correct-client latency reaches LatencyRef
	// maxes that component. The paper's impact tracks both panels of
	// Figure 2 — throughput collapse and latency inflation — so impact
	// here is 0.8*(1-tput/baseline) + 0.2*min(1, lat/LatencyRef). Zero
	// disables the latency component.
	LatencyRef time.Duration
	// ReferenceThroughput, when positive, switches the throughput
	// component to the paper's raw metric: the fitness compares the
	// observed absolute throughput against this fixed reference (e.g.
	// the 250-client baseline) instead of the per-client-count baseline.
	// Under this metric shrinking the deployment itself raises impact,
	// exactly as minimizing "average throughput observed by the correct
	// clients" does in §6.
	ReferenceThroughput float64
	// Equivocate injects an equivocating primary (replica 0 proposes
	// conflicting batches for the same sequence number) for oracle
	// validation. On its own, correct quorums absorb the equivocation;
	// combined with PBFT.QuorumBug it produces an executed agreement
	// violation that the run's oracles report on the Result.
	Equivocate bool
	// ByzantineReplica selects which replica carries the armed Byzantine
	// behavior (default 0). Pointing it at a backup makes the injected
	// defect schedule-dependent: an equivocating backup is harmless until
	// view-change churn rotates the primaryship onto it, so a search has
	// to drive view changes before the violation can fire.
	ByzantineReplica int
	// StepBudget caps the number of engine events one measurement window
	// may execute (0 = unlimited). A scenario that drives the deployment
	// into an unbounded event storm exhausts the budget instead of
	// spinning forever; the run degrades to an error-carrying Result
	// (Result.Hung) and the campaign moves on.
	StepBudget uint64
}

// DefaultWorkload returns the Figure-2/3 workload: 4 replicas (f=1),
// sub-millisecond LAN, compressed timers, 2-second measurement window.
func DefaultWorkload() Workload {
	cfg := pbft.DefaultConfig()
	cfg.ViewChangeTimeout = 500 * time.Millisecond
	cfg.NewViewTimeout = 250 * time.Millisecond
	return Workload{
		PBFT:    cfg,
		Net:     simnet.Config{BaseLatency: 500 * time.Microsecond},
		Seed:    1,
		Warmup:  300 * time.Millisecond,
		Measure: 2 * time.Second,
		Correct: pbft.ClientConfig{
			Retry:    50 * time.Millisecond,
			RetryCap: 400 * time.Millisecond,
		},
		Malicious: pbft.ClientConfig{
			Retry:    40 * time.Millisecond,
			RetryCap: 80 * time.Millisecond,
		},
		MaskBits:             12,
		CrashOnBadReproposal: true,
		LatencyRef:           time.Second,
	}
}

// Report carries the detailed outcome of one test beyond the core.Result
// impact summary.
type Report struct {
	CorrectCompleted   uint64
	MaliciousCompleted uint64
	Retransmissions    uint64
	ViewsInstalled     uint64
	TimerViewChanges   uint64
	RejectedBatches    uint64
	RejectedRequests   uint64
	StateTransfers     uint64
	Crashes            uint64 // injected crash-restart faults
	Restarts           uint64 // injected restarts
	CrashedReplicas    []int
	CrashReasons       []string
	FinalViews         []uint64
	P99Latency         time.Duration
}

// Runner executes scenarios against a fixed workload. It caches baseline
// (attack-free) measurements per correct-client count, as impact is
// relative to them. Runner is safe for concurrent use by parallel
// sweeps and campaign workers.
type Runner struct {
	w Workload
	// baselines is the shared singleflight cache: concurrent workers
	// needing the same missing baseline share one deterministic
	// measurement instead of duplicating it.
	baselines core.BaselineCache

	// phases accumulates the campaign time decomposition
	// (warmup/baseline/fork/run/analyze) that cmd/bench reports.
	phases core.PhaseTimes

	// masters caches warm deployments per client population for the
	// snapshot/fork execution path: a deployment is built and warmed once
	// per (correct, malicious) population, snapshotted, and then every
	// test with that population forks from the snapshot instead of
	// cold-building the cluster.
	masters core.ForkCache[masterKey, *deployment]

	// workerMasters holds each parallel campaign worker's private master
	// arena for the contention-free fork path (core.WorkerSnapshotter):
	// no shared checkout mutex, one build per (worker, population).
	workerMasters core.WorkerArenas[masterKey, *deployment]

	// pool lends every deployment — pooled master, worker-arena master or
	// cold run — the message memory of its measurement window; it comes
	// back when the run parks (DESIGN.md §15).
	pool slab.Pool
}

// masterKey is the structural identity of a deployment: everything that
// shapes the warmup. Fault parameters are not part of it — they arm at
// measurement start.
type masterKey struct{ correct, malicious int64 }

// NewRunner returns a runner for the workload.
func NewRunner(w Workload) (*Runner, error) {
	if err := w.PBFT.Validate(); err != nil {
		return nil, err
	}
	if w.Measure <= 0 {
		return nil, fmt.Errorf("cluster: measurement window must be positive")
	}
	if w.MaskBits == 0 || w.MaskBits > 32 {
		return nil, fmt.Errorf("cluster: mask bits %d out of range [1,32]", w.MaskBits)
	}
	if w.BaselineMeasure < 0 {
		return nil, fmt.Errorf("cluster: baseline measurement window must not be negative")
	}
	return &Runner{w: w}, nil
}

// baselineWindow is the measurement window for attack-free baselines.
func (w Workload) baselineWindow() time.Duration {
	if w.BaselineMeasure > 0 {
		return w.BaselineMeasure
	}
	return w.Measure
}

// Workload returns the runner's workload.
func (r *Runner) Workload() Workload { return r.w }

var _ core.Runner = (*Runner)(nil)

// Run implements core.Runner: a cold run, building and warming a fresh
// deployment. It is the reference semantics that the forked path must
// reproduce bit-for-bit.
func (r *Runner) Run(sc scenario.Scenario) core.Result {
	res, _ := r.RunReport(sc)
	return res
}

// RunFork implements core.Snapshotter: execute the scenario by forking a
// warm master deployment for the scenario's client population. Identical
// to Run — trace, metrics, oracle verdicts — at a fraction of the cost.
func (r *Runner) RunFork(sc scenario.Scenario) core.Result {
	res, _ := r.RunForkReport(sc)
	return res
}

// RunReport executes the scenario cold and returns both the impact
// result and the detailed report.
func (r *Runner) RunReport(sc scenario.Scenario) (core.Result, Report) {
	return r.runScored(sc, false)
}

// RunForkReport is RunReport through the snapshot/fork path.
func (r *Runner) RunForkReport(sc scenario.Scenario) (core.Result, Report) {
	return r.runScored(sc, true)
}

// RunTraced executes the scenario cold with a trace recorder attached
// for the measurement window and returns the oracle-event stream
// alongside the result.
func (r *Runner) RunTraced(sc scenario.Scenario) (core.Result, Report, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := r.runScoredExtra(sc, false, rec)
	return res, rep, rec.Events()
}

// RunTracedFork is RunTraced through the snapshot/fork path; the
// determinism tests compare its stream against RunTraced's.
func (r *Runner) RunTracedFork(sc scenario.Scenario) (core.Result, Report, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := r.runScoredExtra(sc, true, rec)
	return res, rep, rec.Events()
}

func (r *Runner) runScored(sc scenario.Scenario, fork bool) (core.Result, Report) {
	return r.runScoredExtra(sc, fork)
}

func (r *Runner) runScoredExtra(sc scenario.Scenario, fork bool, extra ...oracle.Checker) (core.Result, Report) {
	correct := sc.GetOr(plugin.DimCorrectClients, 10)
	var (
		res core.Result
		rep Report
	)
	if fork {
		res, rep = r.executeFork(sc, correct, true, extra...)
	} else {
		res, rep = r.execute(sc, correct, true, extra...)
	}
	return r.score(correct, res, rep)
}

var _ core.WorkerSnapshotter = (*Runner)(nil)

// RunForkWorker implements core.WorkerSnapshotter: the forked run checks
// its master out of the worker slot's private arena instead of the
// shared ForkCache, so parallel campaign workers never contend on the
// checkout mutex. The master build, the fork and the measurement are the
// same deterministic steps as RunFork's, so results are bit-for-bit
// identical regardless of which slot runs a scenario (enforced by test).
func (r *Runner) RunForkWorker(sc scenario.Scenario, worker int) core.Result {
	correct := sc.GetOr(plugin.DimCorrectClients, 10)
	arena := r.workerMasters.Arena(worker)
	key := masterKey{correct: correct, malicious: maliciousPopulation(sc)}
	d := arena[key]
	if d == nil {
		start := metrics.StartWatch()
		d = r.newDeployment(key.correct, key.malicious)
		d.eng.RunFor(r.w.Warmup)
		arena[key] = d
		r.phases.AddWarmup(start.Elapsed())
	}
	res, rep := r.forkRun(d, sc, true, r.w.Measure)
	res, _ = r.score(correct, res, rep)
	return res
}

// score computes the impact of a measured result against the cached
// attack-free baseline for the population.
func (r *Runner) score(correct int64, res core.Result, rep Report) (core.Result, Report) {
	baseline := r.Baseline(correct)
	analyzeStart := metrics.StartWatch()
	defer func() { r.phases.AddAnalyze(analyzeStart.Elapsed()) }()
	res.BaselineThroughput = baseline
	if baseline > 0 {
		ref := baseline
		if r.w.ReferenceThroughput > 0 {
			ref = r.w.ReferenceThroughput
		}
		tputImpact := 1 - res.Throughput/ref
		if tputImpact < 0 {
			tputImpact = 0
		}
		if tputImpact > 1 {
			tputImpact = 1
		}
		if r.w.LatencyRef > 0 {
			latImpact := float64(res.AvgLatency) / float64(r.w.LatencyRef)
			if latImpact > 1 {
				latImpact = 1
			}
			res.Impact = 0.8*tputImpact + 0.2*latImpact
		} else {
			res.Impact = tputImpact
		}
	}
	return res, rep
}

// Baseline returns the attack-free throughput for a correct-client
// count, measuring and caching it on first use. Concurrent callers for
// the same count share a single measurement; different counts measure in
// parallel.
func (r *Runner) Baseline(correctClients int64) float64 {
	return r.baselines.Get(correctClients, r.measureBaseline)
}

func (r *Runner) measureBaseline(correctClients int64) float64 {
	start := metrics.StartWatch()
	defer func() { r.phases.AddBaseline(start.Elapsed()) }()
	empty := scenario.MustNewSpace(scenario.Dimension{
		Name: plugin.DimCorrectClients, Min: correctClients, Max: correctClients, Step: 1,
	}).New(nil)
	// Baselines fork from the same warm master attack runs use — the
	// raft treatment (ISSUE 10). Faults arm at measurement start, so the
	// warmed snapshot is already fault-neutral: a baseline is simply a
	// fork with nothing armed, and the baseline phase prices only its
	// short measurement windows, never a duplicate build+warm per count.
	// The value is memoized per count by the BaselineCache, so every
	// population sharing the count pays zero.
	res, _ := r.executeFork(empty, correctClients, false)
	return res.Throughput
}

var _ core.Warmer = (*Runner)(nil)

// Warm implements core.Warmer: before a batch is dispatched to parallel
// campaign workers, measure the batch's missing baselines concurrently so
// workers neither duplicate them nor serialize behind one another.
func (r *Runner) Warm(batch []scenario.Scenario) {
	counts := make([]int64, len(batch))
	for i, sc := range batch {
		counts[i] = sc.GetOr(plugin.DimCorrectClients, 10)
	}
	r.baselines.Warm(counts, r.measureBaseline)
}

var _ core.Preparer = (*Runner)(nil)

// Prepare implements core.Preparer: it readies the scenario's
// per-population artifacts — the warm, captured master deployment and
// the baseline measurement — ahead of the run, so the pipelined campaign
// executor can overlap the next population's build+warmup with the
// current population's measurement. Prepare changes no observable
// result: the master is the same deterministic build the run would do,
// and the baseline the same memoized measurement.
func (r *Runner) Prepare(sc scenario.Scenario) {
	correct := sc.GetOr(plugin.DimCorrectClients, 10)
	key := masterKey{correct: correct, malicious: maliciousPopulation(sc)}
	r.masters.Prepare(key, func() *deployment {
		start := metrics.StartWatch()
		d := r.newDeployment(key.correct, key.malicious)
		d.eng.RunFor(r.w.Warmup)
		r.phases.AddWarmup(start.Elapsed())
		forkStart := metrics.StartWatch()
		d.capture()
		r.phases.AddFork(forkStart.Elapsed())
		return d
	})
	r.Baseline(correct)
}

// Phases returns the accumulated campaign-phase breakdown (see
// core.PhaseTimes). The accumulators live for the Runner's lifetime;
// cmd/bench isolates campaigns by constructing a fresh target per run.
func (r *Runner) Phases() core.PhaseBreakdown { return r.phases.Breakdown() }

// FlushMasters discards every parked warm master. Benchmarks that switch
// from fork-based execution to cold-run measurement call it so the
// cold runs aren't taxed by GC marking of retained deployments they will
// never fork from; the next forked run transparently rebuilds.
func (r *Runner) FlushMasters() { r.masters.DropAll() }

// execute builds, warms and runs one cold deployment. withFaults=false
// strips every malicious element (baseline measurement). Faults arm at
// measurement start — identically to the forked path, so a cold run is
// the forked run's reference semantics.
func (r *Runner) execute(sc scenario.Scenario, correctClients int64, withFaults bool, extra ...oracle.Checker) (core.Result, Report) {
	window := r.w.Measure
	if !withFaults {
		window = r.w.baselineWindow()
	}
	d := r.newDeployment(correctClients, maliciousPopulation(sc))
	d.eng.RunFor(r.w.Warmup)
	// Fix the arena's mark where a master's capture would, so the window
	// leases — and trips the memory ceiling — exactly as a forked one.
	d.mem.Capture()
	d.arm(sc, withFaults, extra...)
	res, rep := d.measure(sc, window)
	d.park()
	return res, rep
}

// executeFork runs the scenario by forking a warm master deployment:
// check out (or build) a master for the scenario's client population,
// restore it to its post-warmup snapshot, arm the scenario's faults and
// measure. Baseline forks (withFaults=false) skip the per-phase
// accounting: measureBaseline attributes their whole cost — including
// the attack-free master's build — to the baseline phase.
func (r *Runner) executeFork(sc scenario.Scenario, correctClients int64, withFaults bool, extra ...oracle.Checker) (core.Result, Report) {
	window := r.w.Measure
	if !withFaults {
		window = r.w.baselineWindow()
	}
	key := masterKey{correct: correctClients, malicious: maliciousPopulation(sc)}
	d := r.masters.Acquire(key, func() *deployment {
		start := metrics.StartWatch()
		defer func() {
			if withFaults {
				r.phases.AddWarmup(start.Elapsed())
			}
		}()
		d := r.newDeployment(key.correct, key.malicious)
		d.eng.RunFor(r.w.Warmup)
		return d
	})
	defer r.masters.Release(key, d)
	return r.forkRun(d, sc, withFaults, window, extra...)
}

// forkRun restores a checked-out master to its post-warmup snapshot
// (capturing it on first use), arms the scenario and measures. Shared by
// the pooled (executeFork) and per-worker-arena (RunForkWorker) paths.
func (r *Runner) forkRun(d *deployment, sc scenario.Scenario, withFaults bool, window time.Duration, extra ...oracle.Checker) (core.Result, Report) {
	forkStart := metrics.StartWatch()
	if d.snap == nil {
		d.capture()
	} else {
		d.restore()
	}
	d.arm(sc, withFaults, extra...)
	if withFaults {
		r.phases.AddFork(forkStart.Elapsed())
	}
	runStart := metrics.StartWatch()
	res, rep := d.measure(sc, window)
	d.park()
	if withFaults {
		r.phases.AddRun(runStart.Elapsed())
	}
	return res, rep
}

// maliciousPopulation is the malicious-client population a scenario
// deploys. The population is topology, not behavior: baseline runs
// deploy the same clients and simply never arm their corruption plans
// (faults arm at measurement start, so a warmed master snapshot is
// fault-neutral and one master per (count, population) serves attack
// forks and baseline forks alike).
func maliciousPopulation(sc scenario.Scenario) int64 {
	return sc.GetOr(plugin.DimMaliciousClients, 1)
}

// dropWindow drops sends from one address for call numbers in
// [start, start+length) — the FaultPlan plugin's network fault.
type dropWindow struct {
	from   simnet.Addr
	start  uint64
	length uint64
	calls  uint64
}

func newDropWindow(from simnet.Addr, start, length uint64) *dropWindow {
	return &dropWindow{from: from, start: start, length: length}
}

var _ simnet.Interceptor = (*dropWindow)(nil)

// Intercept implements simnet.Interceptor.
func (d *dropWindow) Intercept(m *simnet.Message) simnet.Verdict {
	if m.From != d.from {
		return simnet.VerdictDeliver
	}
	call := d.calls
	d.calls++
	if call >= d.start && call < d.start+d.length {
		return simnet.VerdictDrop
	}
	return simnet.VerdictDeliver
}
