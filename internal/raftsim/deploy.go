package raftsim

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// deployment is one instantiated Raft cluster bound to its own engine.
// Construction is fault-neutral — the leader-flap attacker arms at
// measurement start — so one warm deployment serves both scenario runs
// and the attack-free baseline for its client count (DESIGN.md §8).
// A deployment runs one test at a time; the Runner's master cache hands
// each worker its own.
type deployment struct {
	w       Workload
	eng     *sim.Engine
	net     *simnet.Network
	oracles *oracle.Set
	cov     *oracle.CoverageChecker // rides oracles; measure reads its digest
	nodes   []*Node
	cs      []*Client

	// mem accounts for the message arena every node and client carves
	// from: capture adopts the warm-up prefix, park hands the window's
	// chunks back to the Runner's pool (DESIGN.md §15).
	mem *slab.Arena

	// win counts the clients' completions inside the window.
	win core.Window
	// faults addresses the nodes for the fault-vocabulary-v2 axes.
	faults plugin.FaultSite

	// snap is the post-warmup capture every run restores from.
	snap *deploymentSnapshot
}

var _ core.Deployment[Report] = (*deployment)(nil)

// deploymentSnapshot pairs the engine/network captures with every
// node's and client's own state capture.
type deploymentSnapshot struct {
	eng     *sim.Snapshot
	net     *simnet.NetSnapshot
	oracles []any
	nodes   []*NodeState
	clients []*ClientState
}

// newDeployment builds, starts and warms up a fault-neutral Raft
// deployment.
func (r *Runner) newDeployment(clients int64) *deployment {
	w := r.w
	// The coverage checker is part of the base oracle set: it is
	// Rewindable, so snapshot/fork execution rolls its timeline fold back
	// with the invariant checkers and forked digests equal cold ones.
	cov := oracle.NewCoverage()
	d := &deployment{
		w:   w,
		eng: sim.New(w.Seed),
		oracles: oracle.NewSet(
			oracle.NewElectionSafety("raft"),
			oracle.NewAgreementIn(&r.pool, "raft"),
			cov,
		),
		cov: cov,
	}
	d.net = simnet.New(d.eng, w.Net)
	d.mem = slab.NewArena(&r.pool, d.eng.Stop)
	d.win = core.Window{Name: "raftsim", Eng: d.eng, Mem: d.mem}
	arena := NewArena(d.mem)
	d.net.SetOwner(arena)

	d.nodes = make([]*Node, 0, w.Raft.N)
	for i := 0; i < w.Raft.N; i++ {
		id := i
		n, err := NewNode(i, w.Raft, d.net,
			WithLeadObserver(func(term uint64) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventLeader, Node: id, Term: term})
			}),
			WithApplyObserver(func(index uint64, e Entry) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: index, Term: e.Term, Digest: EntryDigest(e)})
			}),
			WithArena(arena))
		if err != nil {
			panic(fmt.Sprintf("raftsim: node construction: %v", err)) // config was validated
		}
		d.nodes = append(d.nodes, n)
	}

	d.faults = plugin.FaultSite{
		Eng: d.eng, Net: d.net, Obs: d.oracles,
		PickVictim: d.pickCrashVictim,
		Crash: func(node int, keepDurable bool) bool {
			d.nodes[node].Crash(keepDurable)
			return true
		},
		Restart: func(node int) { d.nodes[node].Restart() },
		Corrupt: arena.Corrupt,
	}
	for _, n := range d.nodes {
		d.faults.Nodes = append(d.faults.Nodes, plugin.FaultNode{Addr: simnet.Addr(n.ID()), Clock: n.Clock()})
	}

	onComplete := d.win.OnComplete
	d.cs = make([]*Client, 0, clients)
	nextAddr := simnet.Addr(w.Raft.N)
	for i := int64(0); i < clients; i++ {
		c, err := NewClient(nextAddr, w.Raft, w.Client, d.net, WithOnComplete(onComplete), WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("raftsim: client construction: %v", err))
		}
		nextAddr++
		d.cs = append(d.cs, c)
	}

	for _, n := range d.nodes {
		n.Start()
	}
	for _, c := range d.cs {
		c.Start()
	}
	d.eng.RunFor(w.Warmup)
	return d
}

// Capture takes the post-warmup snapshot every run restores from, and
// leaves the deployment parked (Node.Snapshot keeps the logs): only
// Restore may follow.
func (d *deployment) Capture() {
	s := &deploymentSnapshot{
		eng:     d.eng.Snapshot(),
		net:     d.net.Snapshot(),
		oracles: d.oracles.Snapshot(),
	}
	for _, n := range d.nodes {
		s.nodes = append(s.nodes, n.Snapshot())
	}
	for _, c := range d.cs {
		s.clients = append(s.clients, c.Snapshot())
	}
	d.mem.Capture()
	d.snap = s
}

// Restore rolls the whole deployment back to the post-warmup snapshot.
func (d *deployment) Restore() {
	s := d.snap
	d.park()
	d.eng.Restore(s.eng)
	d.net.Restore(s.net)
	d.oracles.Restore(s.oracles)
	for i, n := range d.nodes {
		n.Restore(s.nodes[i])
	}
	for i, c := range d.cs {
		c.Restore(s.clients[i])
	}
	d.win.Reset()
}

// park ends a run: the window's message memory, the nodes' logs and the
// oracle tables go back to the Runner's pool, so a parked master retains
// only what its snapshot references (see cluster's deployment.park). It
// is idempotent, and only Restore may follow it.
func (d *deployment) park() {
	d.mem.Rewind()
	for _, n := range d.nodes {
		n.Park()
	}
	d.oracles.Park()
}

// Arm activates the scenario's attackers and per-run checkers at
// measurement start; withFaults=false strips the attackers (baseline).
// The Raft protocol oracles — election safety, log-matching agreement
// over applied entries, committed-entry durability — always observe the
// run; extra checkers (e.g. a trace Recorder) join for the window.
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
	d.oracles.Attach(extra...)
	if !withFaults {
		return
	}
	flapInterval := time.Duration(sc.GetOr(DimFlapIntervalMS, 0)) * time.Millisecond
	flapDown := time.Duration(sc.GetOr(DimFlapDownMS, 0)) * time.Millisecond
	if flapInterval > 0 && flapDown > 0 {
		attacker := &leaderFlap{eng: d.eng, net: d.net, nodes: d.nodes, interval: flapInterval, down: flapDown}
		attacker.start()
	}
	plugin.ArmFaults(sc, &d.faults)
}

// Measure runs the given measurement window and collects the scenario
// outcome.
func (d *deployment) Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (core.Result, Report) {
	leaderBefore := currentLeader(d.nodes)
	res, p99 := core.MeasureWindow(&d.win, d.cs, sc, window, stepBudget)
	rep := Report{
		Completed:     d.win.Completed(),
		LeaderChanged: leaderBefore != currentLeader(d.nodes),
		P99Latency:    p99,
	}
	for _, n := range d.nodes {
		st := n.Stats()
		rep.ElectionsStarted += st.ElectionsStarted
		rep.Redirects += st.Redirects
		rep.Crashes += st.Crashes
		rep.Restarts += st.Restarts
		if st.TermsSeen > rep.MaxTerm {
			rep.MaxTerm = st.TermsSeen
		}
	}
	for _, c := range d.cs {
		rep.Retransmissions += c.Stats().Retransmissions
	}
	res.ViewChanges = rep.ElectionsStarted // terms are Raft's "views"
	res.InjectedCrashes = rep.Crashes
	res.Restarts = rep.Restarts
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	d.park()
	return res, rep
}
