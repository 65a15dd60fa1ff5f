package raftsim

import (
	"fmt"
	"hash/fnv"
	"time"

	"avd/internal/core"
	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Workload fixes everything about a Raft test that is not a hyperspace
// dimension: protocol configuration, network model, timing, seeds. It is
// the Raft analogue of cluster.Workload, and the impact metric is
// computed identically — 0.8 x normalized throughput collapse + 0.2 x
// latency inflation against LatencyRef — so impacts are comparable
// across the two targets.
type Workload struct {
	// Raft is the protocol configuration shared by all nodes.
	Raft Config
	// Net is the simulated network model.
	Net simnet.Config
	// Seed drives all simulation randomness; a test is a deterministic
	// function of (Workload, Scenario).
	Seed int64
	// Warmup runs before measurement starts (long enough to elect the
	// first leader).
	Warmup time.Duration
	// Measure is the measurement window.
	Measure time.Duration
	// BaselineMeasure, when positive, is a shorter measurement window
	// used only for attack-free baseline runs: a steady-state baseline
	// converges long before the full attack window elapses, and the
	// window dominates baseline cost once masters are warm-forked. Zero
	// means "use Measure", preserving historical results bit-for-bit.
	BaselineMeasure time.Duration
	// Client configures the closed-loop clients.
	Client ClientConfig
	// LatencyRef scales the latency component of the impact metric (see
	// cluster.Workload.LatencyRef). Zero disables it.
	LatencyRef time.Duration
	// StepBudget caps the number of engine events one measurement window
	// may fire; a scenario that exhausts it (a runaway event storm) is
	// reported as hung instead of being waited on. 0 disables the
	// watchdog.
	StepBudget uint64
}

// DefaultWorkload returns the Raft evaluation workload: 5 nodes,
// sub-millisecond LAN, compressed timers, 2-second measurement window.
func DefaultWorkload() Workload {
	return Workload{
		Raft:       DefaultConfig(),
		Net:        simnet.Config{BaseLatency: 500 * time.Microsecond},
		Seed:       1,
		Warmup:     500 * time.Millisecond,
		Measure:    2 * time.Second,
		Client:     DefaultClientConfig(),
		LatencyRef: 500 * time.Millisecond,
	}
}

// Report carries the detailed outcome of one Raft test beyond the
// core.Result impact summary.
type Report struct {
	Completed        uint64
	ElectionsStarted uint64
	MaxTerm          uint64
	// LeaderChanged reports whether the leader at the end of the window
	// differs from the one at its start.
	LeaderChanged   bool
	Redirects       uint64
	Retransmissions uint64
	P99Latency      time.Duration
	// Crashes / Restarts count injected crash-restart fault activity.
	Crashes  uint64
	Restarts uint64
}

// Runner executes scenarios against a fixed Raft workload. Like
// cluster.Runner it caches attack-free baseline throughput per
// correct-client count (the shared core.BaselineCache singleflight) and
// is safe for concurrent use by parallel engine workers.
type Runner struct {
	w         Workload
	baselines core.BaselineCache

	// phases accumulates the campaign time decomposition
	// (warmup/baseline/fork/run/analyze) that cmd/bench reports.
	phases core.PhaseTimes

	// masters caches warm deployments per client count for the
	// snapshot/fork execution path (see cluster.Runner.masters): the
	// leader-flap attacker is purely network-level and arms at
	// measurement start, so scenario runs and baselines fork from the
	// same per-count master.
	masters core.ForkCache[int64, *deployment]

	// workerMasters holds each parallel campaign worker's private master
	// arena for the contention-free fork path (core.WorkerSnapshotter):
	// no shared checkout mutex, one build per (worker, count).
	workerMasters core.WorkerArenas[int64, *deployment]

	// pool lends every deployment the message memory of its measurement
	// window; it comes back when the run parks (DESIGN.md §15).
	pool slab.Pool
}

// NewRunner returns a runner for the workload.
func NewRunner(w Workload) (*Runner, error) {
	if err := w.Raft.Validate(); err != nil {
		return nil, err
	}
	if w.Measure <= 0 {
		return nil, fmt.Errorf("raftsim: measurement window must be positive")
	}
	if w.BaselineMeasure < 0 {
		return nil, fmt.Errorf("raftsim: baseline measurement window must not be negative")
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
// warm master deployment for the scenario's client count.
func (r *Runner) RunFork(sc scenario.Scenario) core.Result {
	res, _ := r.RunForkReport(sc)
	return res
}

// RunReport executes the scenario cold and returns both the impact
// result and the detailed report.
func (r *Runner) RunReport(sc scenario.Scenario) (core.Result, Report) {
	return r.runScored(sc, false, nil)
}

// RunForkReport is RunReport through the snapshot/fork path.
func (r *Runner) RunForkReport(sc scenario.Scenario) (core.Result, Report) {
	return r.runScored(sc, true, nil)
}

// RunTraced executes the scenario with a trace recorder attached and
// returns the oracle-event stream alongside the result: every leadership
// change and log application, in deterministic simulation order. Golden-
// trace regression tests compare this stream against a committed
// fixture.
func (r *Runner) RunTraced(sc scenario.Scenario) (core.Result, Report, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := r.runScored(sc, false, rec)
	return res, rep, rec.Events()
}

// RunTracedFork is RunTraced through the snapshot/fork path; the
// determinism tests compare its stream against RunTraced's.
func (r *Runner) RunTracedFork(sc scenario.Scenario) (core.Result, Report, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := r.runScored(sc, true, rec)
	return res, rep, rec.Events()
}

// runScored executes the scenario with faults and computes the impact
// score against the cached baseline.
func (r *Runner) runScored(sc scenario.Scenario, fork bool, rec *oracle.Recorder) (core.Result, Report) {
	clients := sc.GetOr(DimClients, 10)
	var extra []oracle.Checker
	if rec != nil {
		extra = append(extra, rec)
	}
	var (
		res core.Result
		rep Report
	)
	if fork {
		res, rep = r.executeFork(sc, clients, true, extra...)
	} else {
		res, rep = r.execute(sc, clients, true, extra...)
	}
	return r.score(clients, res, rep)
}

var _ core.WorkerSnapshotter = (*Runner)(nil)

// RunForkWorker implements core.WorkerSnapshotter: the forked run checks
// its master out of the worker slot's private arena instead of the
// shared ForkCache, so parallel campaign workers never contend on the
// checkout mutex. Results are bit-for-bit RunFork's (enforced by test).
func (r *Runner) RunForkWorker(sc scenario.Scenario, worker int) core.Result {
	clients := sc.GetOr(DimClients, 10)
	arena := r.workerMasters.Arena(worker)
	d := arena[clients]
	if d == nil {
		start := metrics.StartWatch()
		d = r.newDeployment(clients)
		d.eng.RunFor(r.w.Warmup)
		arena[clients] = d
		r.phases.AddWarmup(start.Elapsed())
	}
	res, rep := r.forkRun(d, sc, true, r.w.Measure)
	res, _ = r.score(clients, res, rep)
	return res
}

// score computes the impact of a measured result against the cached
// attack-free baseline for the client count.
func (r *Runner) score(clients int64, res core.Result, rep Report) (core.Result, Report) {
	baseline := r.Baseline(clients)
	analyzeStart := metrics.StartWatch()
	defer func() { r.phases.AddAnalyze(analyzeStart.Elapsed()) }()
	res.BaselineThroughput = baseline
	if baseline > 0 {
		tputImpact := 1 - res.Throughput/baseline
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

// Baseline returns the attack-free throughput for a client count,
// measuring and caching it on first use (singleflight per count).
func (r *Runner) Baseline(clients int64) float64 {
	return r.baselines.Get(clients, r.measureBaseline)
}

func (r *Runner) measureBaseline(clients int64) float64 {
	start := metrics.StartWatch()
	defer func() { r.phases.AddBaseline(start.Elapsed()) }()
	empty := scenario.MustNewSpace(scenario.Dimension{
		Name: DimClients, Min: clients, Max: clients, Step: 1,
	}).New(nil)
	// Baselines fork from the same per-count master as scenario runs:
	// an attack-free run is simply a fork with no attacker armed.
	res, _ := r.executeFork(empty, clients, false)
	return res.Throughput
}

var _ core.Warmer = (*Runner)(nil)

// Warm implements core.Warmer: measure a batch's missing baselines
// concurrently before parallel workers need them.
func (r *Runner) Warm(batch []scenario.Scenario) {
	counts := make([]int64, len(batch))
	for i, sc := range batch {
		counts[i] = sc.GetOr(DimClients, 10)
	}
	r.baselines.Warm(counts, r.measureBaseline)
}

var _ core.Preparer = (*Runner)(nil)

// Prepare implements core.Preparer (see cluster.Runner.Prepare): builds,
// warms and captures the scenario's per-count master ahead of its run
// and measures the baseline, result-neutrally, so the pipelined campaign
// executor can overlap population builds with measurements.
func (r *Runner) Prepare(sc scenario.Scenario) {
	clients := sc.GetOr(DimClients, 10)
	r.masters.Prepare(clients, func() *deployment {
		start := metrics.StartWatch()
		d := r.newDeployment(clients)
		d.eng.RunFor(r.w.Warmup)
		r.phases.AddWarmup(start.Elapsed())
		forkStart := metrics.StartWatch()
		d.capture()
		r.phases.AddFork(forkStart.Elapsed())
		return d
	})
	r.Baseline(clients)
}

// Phases returns the accumulated campaign-phase breakdown (see
// core.PhaseTimes). The accumulators live for the Runner's lifetime;
// cmd/bench isolates campaigns by constructing a fresh target per run.
func (r *Runner) Phases() core.PhaseBreakdown { return r.phases.Breakdown() }

// FlushMasters discards every parked warm master, mirroring
// cluster.Runner.FlushMasters: cold-run benchmark sections call it so
// retained deployments don't tax the cold runs' GC cycles.
func (r *Runner) FlushMasters() { r.masters.DropAll() }

// leaderFlap is the network-level attacker of the LeaderFlap plugin: on
// every interval tick it finds the node currently acting as leader and
// severs its links to every peer for the down window, forcing the rest
// of the cluster into an election. At most one node is isolated at a
// time (an attacker with a single vantage point): ticks that land while
// a victim is still down are skipped, so every isolation lasts the full
// down window and the next strike hits the successor leader. Flapping
// faster than the cluster can stabilize produces an election storm:
// terms inflate, candidates split votes, and client requests redirect
// in circles.
type leaderFlap struct {
	eng      *sim.Engine
	net      *simnet.Network
	nodes    []*Node
	interval time.Duration
	down     time.Duration
	isolated int // node currently cut off, -1 when none
	flaps    uint64
}

func (a *leaderFlap) start() {
	a.isolated = -1
	a.eng.Schedule(a.interval, a.strike)
}

func (a *leaderFlap) strike() {
	if a.isolated < 0 {
		victim := currentLeader(a.nodes)
		if victim >= 0 {
			a.isolated = victim
			a.flaps++
			for _, n := range a.nodes {
				if n.ID() != victim {
					a.net.BlockPair(simnet.Addr(victim), simnet.Addr(n.ID()))
				}
			}
			a.eng.Schedule(a.down, a.heal)
		}
	}
	a.eng.Schedule(a.interval, a.strike)
}

func (a *leaderFlap) heal() {
	if a.isolated < 0 {
		return
	}
	for _, n := range a.nodes {
		if n.ID() != a.isolated {
			a.net.UnblockPair(simnet.Addr(a.isolated), simnet.Addr(n.ID()))
		}
	}
	a.isolated = -1
}

// crashRestart is the crash-restart attacker: every interval tick it
// picks a victim, takes it down with Node.Crash, and schedules the
// restart after the down window. At most one node is down at a time.
// Victim selection is deterministic and vote-aware: a follower that
// granted its vote in a still-unresolved election is the highest-value
// target — crashed with durable-state loss it forgets the grant, and on
// restart it can vote again in the same term, which is the schedule that
// breaks Election Safety. With no such follower the current leader is
// struck (forcing an election), falling back to round-robin.
type crashRestart struct {
	eng      *sim.Engine
	nodes    []*Node
	obs      *oracle.Set // crash/restart markers for the coverage timeline
	interval time.Duration
	down     time.Duration
	lose     bool // take the durable state with it
	victim   int  // node currently down, -1 when none
	strikes  uint64
}

func (a *crashRestart) start() {
	a.victim = -1
	a.eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) pick() int {
	for _, n := range a.nodes {
		if !n.crashed && n.role == follower && n.votedFor >= 0 && n.votedFor != n.id && n.leader < 0 {
			return n.id
		}
	}
	if v := currentLeader(a.nodes); v >= 0 && !a.nodes[v].crashed {
		return v
	}
	for i := range a.nodes {
		n := a.nodes[(int(a.strikes)+i)%len(a.nodes)]
		if !n.crashed {
			return n.id
		}
	}
	return -1
}

func (a *crashRestart) strike() {
	if a.victim < 0 {
		if v := a.pick(); v >= 0 {
			a.victim = v
			a.strikes++
			a.nodes[v].Crash(!a.lose)
			a.obs.Observe(oracle.Event{Kind: oracle.EventCrash, Node: v})
			a.eng.Schedule(a.down, a.restart)
		}
	}
	a.eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) restart() {
	if a.victim < 0 {
		return
	}
	a.nodes[a.victim].Restart()
	a.obs.Observe(oracle.Event{Kind: oracle.EventRestart, Node: a.victim})
	a.victim = -1
}

// corruptPayload is the raft target's simnet.Corrupter: it garbles a
// protocol message into a new value (payloads are shared and must never
// be mutated in place). Corruptions perturb protocol claims — log-state
// advertisements, consistency-check coordinates, vote/ack verdicts —
// rather than forging identities, modelling bit rot the transport failed
// to catch. Client traffic is left alone (it has its own fault tools).
func corruptPayload(from, to simnet.Addr, payload any) any {
	switch m := payload.(type) {
	case *RequestVote:
		c := *m
		c.LastLogIndex ^= 1
		c.LastLogTerm ^= 1
		return &c
	case *RequestVoteReply:
		c := *m
		c.Granted = false
		return &c
	case *AppendEntries:
		c := *m
		c.PrevLogIndex ^= 1
		c.PrevLogTerm ^= 1
		return &c
	case *AppendEntriesReply:
		c := *m
		c.Success = false
		c.MatchIndex = 0
		return &c
	}
	return nil
}

// execute builds, warms and runs one cold deployment. withFaults=false
// strips the attacker (baseline measurement). The Raft protocol oracles —
// election safety, log-matching agreement over applied entries,
// committed-entry durability — always observe the run; extra checkers
// (e.g. a trace Recorder) join for the measurement window. The attacker
// arms at measurement start, identically to the forked path, so a cold
// run is the forked run's reference semantics.
func (r *Runner) execute(sc scenario.Scenario, clients int64, withFaults bool, extra ...oracle.Checker) (core.Result, Report) {
	window := r.w.Measure
	if !withFaults {
		window = r.w.baselineWindow()
	}
	d := r.newDeployment(clients)
	d.eng.RunFor(r.w.Warmup)
	// Fix the arena's mark where a master's capture would, so the window
	// leases — and trips the memory ceiling — exactly as a forked one.
	d.mem.Capture()
	d.arm(sc, withFaults, extra...)
	res, rep := d.measure(sc, window)
	d.park()
	return res, rep
}

// executeFork runs the scenario by forking a warm master deployment for
// the client count. Baseline forks (withFaults=false) skip the per-phase
// accounting: measureBaseline attributes their whole cost — including
// the master's build, if this call triggers it — to the baseline phase.
func (r *Runner) executeFork(sc scenario.Scenario, clients int64, withFaults bool, extra ...oracle.Checker) (core.Result, Report) {
	window := r.w.Measure
	if !withFaults {
		window = r.w.baselineWindow()
	}
	d := r.masters.Acquire(clients, func() *deployment {
		start := metrics.StartWatch()
		defer func() {
			if withFaults {
				r.phases.AddWarmup(start.Elapsed())
			}
		}()
		d := r.newDeployment(clients)
		d.eng.RunFor(r.w.Warmup)
		return d
	})
	defer r.masters.Release(clients, d)
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

// EntryDigest is the committed-value identity the oracles compare across
// nodes: a hash of everything that makes two log entries "the same
// command" — term, issuing client, and client sequence number.
func EntryDigest(e Entry) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range [3]uint64{e.Term, uint64(int64(e.Client)), e.Seq} {
		h ^= v
		h *= prime
	}
	return h
}

// currentLeader returns the id of the highest-term node acting as
// leader, or -1 when none is.
func currentLeader(nodes []*Node) int {
	best, bestTerm := -1, uint64(0)
	for _, n := range nodes {
		if n.IsLeader() && (best < 0 || n.Term() > bestTerm) {
			best, bestTerm = n.ID(), n.Term()
		}
	}
	return best
}

// Target adapts the Raft harness to the protocol-agnostic core.Target
// seam, mirroring cluster.Target.
type Target struct {
	*Runner
	plugins []core.Plugin
}

var _ core.Target = (*Target)(nil)

// NewTarget builds the Raft system under test for a workload. With no
// explicit plugins it exposes the default Raft hyperspace: the client
// population composed with the leader-flap attack dimensions.
func NewTarget(w Workload, plugins ...core.Plugin) (*Target, error) {
	r, err := NewRunner(w)
	if err != nil {
		return nil, err
	}
	if len(plugins) == 0 {
		plugins = []core.Plugin{NewClientsPlugin(), NewLeaderFlapPlugin()}
	}
	return &Target{Runner: r, plugins: plugins}, nil
}

// Name implements core.Target.
func (t *Target) Name() string { return "raft" }

// Plugins implements core.Target.
func (t *Target) Plugins() []core.Plugin {
	cp := make([]core.Plugin, len(t.plugins))
	copy(cp, t.plugins)
	return cp
}

// ConfigFingerprint implements core.ConfigFingerprinter, mirroring
// cluster.Target: the workload is a tree of flat scalar structs, so its
// %+v rendering is a deterministic resume guard.
func (t *Target) ConfigFingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", t.Workload())
	return fmt.Sprintf("%016x", h.Sum64())
}
