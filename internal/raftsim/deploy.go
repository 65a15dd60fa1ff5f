package raftsim

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/simnet"
)

// deployment is one instantiated Raft cluster bound to its own engine.
// Construction is fault-neutral — the leader-flap attacker arms at
// measurement start — so one warm deployment serves both scenario runs
// and the attack-free baseline for its client count (DESIGN.md §8).
// A deployment runs one test at a time; the Runner's master cache hands
// each worker its own.
type deployment struct {
	*core.Rig
	w     Workload
	nodes []*Node
	cs    []*Client

	// faults addresses the nodes for the fault-vocabulary-v2 axes.
	faults plugin.FaultSite
}

var _ core.Deployment[Report] = (*deployment)(nil)

// newDeployment builds, starts and warms up a fault-neutral Raft
// deployment.
func (r *Runner) newDeployment(clients int64) *deployment {
	w := r.w
	d := &deployment{
		Rig: core.NewRig("raftsim", r.Pool(), w.Seed, w.Net, "raft"),
		w:   w,
	}
	arena := NewArena(d.Mem)
	d.Net.SetOwner(arena)

	d.nodes = make([]*Node, 0, w.Raft.N)
	for i := 0; i < w.Raft.N; i++ {
		id := i
		n, err := NewNode(i, w.Raft, d.Net,
			WithLeadObserver(func(term uint64) {
				d.Oracle.Observe(oracle.Event{Kind: oracle.EventLeader, Node: id, Term: term})
			}),
			WithApplyObserver(func(index uint64, e Entry) {
				d.Oracle.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: index, Term: e.Term, Digest: EntryDigest(e)})
			}),
			WithArena(arena))
		if err != nil {
			panic(fmt.Sprintf("raftsim: node construction: %v", err)) // config was validated
		}
		d.nodes = append(d.nodes, n)
		// Node.Snapshot keeps the log and leaves the node parked; park
		// hands back the log a window grew and the arrays it retired.
		d.Keep(func() func() { s := n.Snapshot(); return func() { n.Restore(s) } })
		d.OnPark(n.Park)
	}

	d.faults = plugin.FaultSite{
		Eng: d.Eng, Net: d.Net, Obs: d.Oracle,
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

	onComplete := d.OnComplete
	d.cs = make([]*Client, 0, clients)
	nextAddr := simnet.Addr(w.Raft.N)
	for i := int64(0); i < clients; i++ {
		c, err := NewClient(nextAddr, w.Raft, w.Client, d.Net, WithOnComplete(onComplete), WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("raftsim: client construction: %v", err))
		}
		nextAddr++
		d.cs = append(d.cs, c)
		d.Keep(func() func() { s := c.Snapshot(); return func() { c.Restore(s) } })
	}

	for _, n := range d.nodes {
		n.Start()
	}
	for _, c := range d.cs {
		c.Start()
	}
	d.Eng.RunFor(w.Warmup)
	return d
}

// Arm activates the scenario's attackers at measurement start;
// withFaults=false strips the attackers (baseline). The oracle — election
// safety, log-matching agreement over applied entries, committed-entry
// durability — observes every run.
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool) {
	if !withFaults {
		return
	}
	flapInterval := time.Duration(sc.GetOr(DimFlapIntervalMS, 0)) * time.Millisecond
	flapDown := time.Duration(sc.GetOr(DimFlapDownMS, 0)) * time.Millisecond
	if flapInterval > 0 && flapDown > 0 {
		attacker := &leaderFlap{eng: d.Eng, net: d.Net, nodes: d.nodes, interval: flapInterval, down: flapDown}
		attacker.start()
	}
	plugin.ArmFaults(sc, &d.faults)
}

// Measure runs the given measurement window and collects the scenario
// outcome.
func (d *deployment) Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (core.Result, Report) {
	leaderBefore := currentLeader(d.nodes)
	res, p99 := core.MeasureWindow(d.Rig, d.cs, sc, window, stepBudget)
	rep := Report{
		Completed:     d.Completed(),
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
	d.Finish(&res)
	return res, rep
}
