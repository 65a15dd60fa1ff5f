package raftsim

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/faultinject"
	"avd/internal/metrics"
	"avd/internal/oracle"
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

	measuring bool
	completed uint64
	latSum    time.Duration
	latN      uint64
	latTail   []time.Duration // borrowed from the Runner's pool for the length of one measure

	snap *deploymentSnapshot
}

// deploymentSnapshot pairs the engine/network captures with every
// node's and client's own state capture.
type deploymentSnapshot struct {
	eng     *sim.Snapshot
	net     *simnet.NetSnapshot
	oracles []any
	nodes   []*NodeState
	clients []*ClientState
}

// newDeployment builds and starts a fault-neutral Raft deployment. The
// caller runs the warmup.
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
	arena := NewArena(d.mem)

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

	onComplete := d.onComplete
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
	return d
}

// onComplete observes one client completion.
func (d *deployment) onComplete(seq uint64, latency time.Duration) {
	if !d.measuring {
		return
	}
	d.completed++
	d.latSum += latency
	d.latN++
	d.latTail = append(d.latTail, latency)
}

// capture takes the post-warmup snapshot forks restore from.
func (d *deployment) capture() {
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

// restore rolls the whole deployment back to the post-warmup snapshot.
func (d *deployment) restore() {
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
	d.measuring = false
	d.completed = 0
	d.latSum, d.latN = 0, 0
}

// park ends a run: the window's message memory, the nodes' logs and the
// oracle tables go back to the Runner's pool, so a parked master retains
// only what its snapshot references (see cluster's deployment.park). It
// is idempotent, and only restore may follow it.
func (d *deployment) park() {
	d.mem.Rewind()
	for _, n := range d.nodes {
		n.Park()
	}
	d.oracles.Park()
}

// arm activates the scenario's attacker and per-run checkers at
// measurement start (cold path and forked path alike).
func (d *deployment) arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
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
	crashInterval := time.Duration(sc.GetOr(DimCrashIntervalMS, 0)) * time.Millisecond
	crashDown := time.Duration(sc.GetOr(DimCrashDownMS, 0)) * time.Millisecond
	if crashInterval > 0 && crashDown > 0 {
		attacker := &crashRestart{
			eng: d.eng, nodes: d.nodes, obs: d.oracles,
			interval: crashInterval, down: crashDown,
			lose: sc.GetOr(DimCrashLose, 0) != 0,
		}
		attacker.start()
	}
	if v := sc.GetOr(DimSkewNode, 0); v > 0 && int(v) <= len(d.nodes) {
		if pm := sc.GetOr(DimSkewPermille, 0); pm != 0 {
			d.eng.SetSkew(d.nodes[v-1].Clock(), int32(pm))
		}
	}
	if v := sc.GetOr(DimOneWayVictim, 0); v > 0 && int(v) <= len(d.nodes) {
		victim := simnet.Addr(v - 1)
		outbound := sc.GetOr(DimOneWayDir, 0) != 0
		for _, n := range d.nodes {
			peer := simnet.Addr(n.ID())
			if peer == victim {
				continue
			}
			if outbound {
				d.net.Block(victim, peer)
			} else {
				d.net.Block(peer, victim)
			}
		}
	}
	corruptMask := sc.GetOr(DimCorruptMask, 0)
	dupMask := sc.GetOr(DimDupMask, 0)
	if corruptMask != 0 || dupMask != 0 {
		from := simnet.AnyAddr
		if v := sc.GetOr(DimNetFaultFrom, 0); v > 0 && int(v) <= len(d.nodes) {
			from = simnet.Addr(v - 1)
		}
		plan := faultinject.NewPlan(
			faultinject.Rule{
				Point:    simnet.PointLinkCorrupt,
				Trigger:  faultinject.ModMask{Mask: uint64(corruptMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
			faultinject.Rule{
				Point:    simnet.PointLinkDup,
				Trigger:  faultinject.ModMask{Mask: uint64(dupMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
		)
		d.net.ArmLinkFaults(from, simnet.AnyAddr, plan, corruptPayload)
	}
}

// measure runs the given measurement window and collects the scenario
// outcome. Attack runs pass Workload.Measure; attack-free baselines may
// pass the shorter Workload.baselineWindow.
func (d *deployment) measure(sc scenario.Scenario, window time.Duration) (core.Result, Report) {
	d.latTail = slab.Borrow[time.Duration](d.mem.Pool())

	d.measuring = true
	leaderBefore := currentLeader(d.nodes)
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(d.w.StepBudget)
	}
	d.eng.RunFor(window)
	hung := d.eng.BudgetExceeded()
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(0)
	}
	// The arena stops the engine when the window's message memory runs
	// away; like the step budget, that ends dispatch but not the window.
	overflowed := d.mem.Overflowed()
	if overflowed {
		d.eng.Resume()
	}
	d.measuring = false
	leaderAfter := currentLeader(d.nodes)

	// Censored latency for requests still stuck at window end.
	end := d.eng.Now()
	for _, c := range d.cs {
		if sentAt, ok := c.Outstanding(); ok {
			if waited := end.Sub(sentAt); waited > 0 {
				d.latSum += waited
				d.latN++
				d.latTail = append(d.latTail, waited)
			}
		}
	}

	res := core.Result{Scenario: sc}
	res.Throughput = float64(d.completed) / window.Seconds()
	if d.latN > 0 {
		res.AvgLatency = d.latSum / time.Duration(d.latN)
	}
	rep := Report{Completed: d.completed, LeaderChanged: leaderBefore != leaderAfter}
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
	if hung {
		res.Hung = true
		res.Error = fmt.Sprintf("raftsim: scenario exceeded the %d-event step budget (runaway event storm)", d.w.StepBudget)
	} else if overflowed {
		res.Hung = true
		res.Error = fmt.Sprintf("raftsim: scenario exceeded the %d MB window-memory ceiling (runaway allocation)", slab.WindowCeiling>>20)
	}
	rep.P99Latency = metrics.PercentileInPlace(d.latTail, 99)
	slab.Return(d.mem.Pool(), d.latTail)
	d.latTail = nil
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	return res, rep
}
