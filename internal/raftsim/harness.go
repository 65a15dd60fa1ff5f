package raftsim

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
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

// Runner is the Raft system under test: the generic core.Harness over
// Raft deployments, one warm master per client count (the attackers are
// network-level and arm at measurement start, so scenario runs and
// baselines fork from the same master). It executes scenarios against a
// fixed workload, is a core.Target, and is safe for concurrent use by
// parallel engine workers.
type Runner struct {
	*core.Harness[int64, *deployment, Report]
	w Workload
}

var (
	_ core.Target            = (*Runner)(nil)
	_ core.WorkerSnapshotter = (*Runner)(nil)
	_ core.Preparer          = (*Runner)(nil)
	_ core.Warmer            = (*Runner)(nil)
)

// populationOf is the client population a scenario deploys — the whole
// structural identity of a Raft deployment, and so the harness's master
// and baseline key.
func populationOf(sc scenario.Scenario) int64 { return sc.GetOr(DimClients, 10) }

// NewRunner returns a runner for the workload with the default plugins.
func NewRunner(w Workload) (*Runner, error) { return NewTarget(w) }

// NewTarget builds the Raft system under test for a workload. With no
// explicit plugins it exposes DefaultPlugins' hyperspace.
func NewTarget(w Workload, plugins ...core.Plugin) (*Runner, error) {
	if err := w.Raft.Validate(); err != nil {
		return nil, err
	}
	if w.Measure <= 0 {
		return nil, fmt.Errorf("raftsim: measurement window must be positive")
	}
	if len(plugins) == 0 {
		plugins = DefaultPlugins()
	}
	r := &Runner{w: w}
	r.Harness = core.NewHarness[int64, *deployment, Report](core.HarnessSpec[int64, *deployment]{
		Name:       "raft",
		Plugins:    plugins,
		Config:     w,
		ClientsDim: DimClients,
		Key:        populationOf,
		Build:      r.newDeployment,
		Measure:    w.Measure,
		StepBudget: w.StepBudget,
		LatencyRef: w.LatencyRef,
	})
	return r, nil
}

// Workload returns the runner's workload.
func (r *Runner) Workload() Workload { return r.w }

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

// pickCrashVictim chooses the crash-restart attacker's next victim,
// vote-aware: a follower that granted its vote in a still-unresolved
// election is the highest-value target — crashed with durable-state loss
// it forgets the grant, and on restart it can vote again in the same
// term, which is the schedule that breaks Election Safety. With no such
// follower the current leader is struck (forcing an election), falling
// back to round-robin.
func (d *deployment) pickCrashVictim(strikes uint64) int {
	for _, n := range d.nodes {
		if !n.crashed && n.role == follower && n.votedFor >= 0 && n.votedFor != n.id && n.leader < 0 {
			return n.id
		}
	}
	if v := currentLeader(d.nodes); v >= 0 && !d.nodes[v].crashed {
		return v
	}
	for i := range d.nodes {
		n := d.nodes[(int(strikes)+i)%len(d.nodes)]
		if !n.crashed {
			return n.id
		}
	}
	return -1
}

// EntryDigest is the committed-value identity the oracles compare across
// nodes: a hash of everything that makes two log entries "the same
// command" — term, issuing client, and client sequence number.
func EntryDigest(e Entry) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range [3]uint64{uint64(e.Term), uint64(int64(e.Client)), uint64(e.Seq)} {
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
