package cluster

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/faultinject"
	"avd/internal/graycode"
	"avd/internal/oracle"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// deployment is one instantiated PBFT cluster bound to its own engine.
// Construction is fault-neutral: every scenario-specific tool (MAC
// corruption plans, Byzantine behaviors, interceptors) arms at
// measurement start, which is what lets one warm deployment serve many
// tests — the warmup prefix is shared, scenarios only diverge once
// fault injection begins (DESIGN.md §8). A deployment is single-run at a
// time and not safe for concurrent use; the Runner's master cache hands
// each worker its own.
type deployment struct {
	w         Workload
	eng       *sim.Engine
	net       *simnet.Network
	oracles   *oracle.Set
	cov       *oracle.CoverageChecker // rides oracles; measure reads its digest
	replicas  []*pbft.Replica
	byz       *pbft.ByzantineBehavior // attached to replica byzIdx, zero = inert
	byzIdx    int                     // which replica carries byz (Workload.ByzantineReplica, clamped)
	clients   []*pbft.Client
	malicious []*pbft.Client

	// mem accounts for the message arena every replica and client carves
	// from: capture adopts the warm-up prefix, park hands the window's
	// chunks back to the Runner's pool (DESIGN.md §15).
	mem *slab.Arena

	// win counts the correct clients' completions inside the window.
	win core.Window
	// faults addresses the replicas for the fault-vocabulary-v2 axes.
	faults plugin.FaultSite

	// snap is the post-warmup capture every run restores from.
	snap *deploymentSnapshot
}

var _ core.Deployment[Report] = (*deployment)(nil)

// deploymentSnapshot pairs the engine/network captures with every
// replica's and client's own state capture.
type deploymentSnapshot struct {
	eng       *sim.Snapshot
	net       *simnet.NetSnapshot
	oracles   []any
	replicas  []*pbft.ReplicaState
	clients   []*pbft.ClientState
	malicious []*pbft.ClientState
}

// newDeployment builds, starts and warms up a fault-neutral deployment
// with the given client population.
func (r *Runner) newDeployment(key masterKey) *deployment {
	w := r.w
	correctClients, nMalicious := key.correct, key.malicious
	// The coverage checker is part of the base oracle set: it is
	// Rewindable, so snapshot/fork execution rolls its timeline fold back
	// with the invariant checkers and forked digests equal cold ones.
	cov := oracle.NewCoverage()
	d := &deployment{
		w:       w,
		eng:     sim.New(w.Seed),
		net:     nil,
		oracles: oracle.NewSet(oracle.NewAgreementIn(&r.pool, "pbft"), cov),
		cov:     cov,
		byz:     &pbft.ByzantineBehavior{},
		byzIdx:  w.ByzantineReplica,
	}
	d.mem = slab.NewArena(&r.pool, d.eng.Stop)
	d.win = core.Window{Name: "cluster", Eng: d.eng, Mem: d.mem}
	arena := pbft.NewArena(d.mem)
	if d.byzIdx < 0 || d.byzIdx >= w.PBFT.N {
		d.byzIdx = 0
	}
	d.net = simnet.New(d.eng, w.Net)
	d.net.SetOwner(arena)

	// Protocol oracles observe every replica's executions: no two
	// replicas may commit different batches at one sequence number
	// (agreement), and no replica may overwrite its own committed
	// history (durability).
	d.replicas = make([]*pbft.Replica, 0, w.PBFT.N)
	// View installations feed the oracle stream as leadership events when
	// the installing replica is the new view's primary, so the coverage
	// signal sees view-change progress (the max-term bucket and the
	// transition edges both move). One closure is shared by all replicas
	// — the callback receives the installing node — to keep deployment
	// construction off the per-replica closure tax.
	viewObs := pbft.WithViewObserver(func(node int, view uint64) {
		if w.PBFT.PrimaryOf(view) == node {
			d.oracles.Observe(oracle.Event{Kind: oracle.EventLeader, Node: node, Term: view})
		}
	})
	for i := 0; i < w.PBFT.N; i++ {
		id := i
		opts := []pbft.ReplicaOption{
			pbft.WithCrashOnBadReproposal(w.CrashOnBadReproposal),
			pbft.WithCommitObserver(func(seq, digest uint64) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: seq, Digest: digest})
			}),
			viewObs,
			pbft.WithArena(arena),
		}
		if i == d.byzIdx {
			// The potential Byzantine replica: behavior fields stay zero
			// (a correct replica) until a scenario arms them.
			opts = append(opts, pbft.WithByzantine(d.byz))
		}
		rep, err := pbft.NewReplica(i, w.PBFT, d.net, opts...)
		if err != nil {
			panic(fmt.Sprintf("cluster: replica construction: %v", err)) // config was validated
		}
		d.replicas = append(d.replicas, rep)
	}

	d.faults = plugin.FaultSite{
		Eng: d.eng, Net: d.net, Obs: d.oracles,
		PickVictim: d.pickCrashVictim,
		Crash:      func(node int, keepDurable bool) bool { return d.replicas[node].Crash(keepDurable) },
		Restart:    func(node int) { d.replicas[node].Restart() },
		Corrupt:    pbft.Corrupt,
	}
	for _, rpl := range d.replicas {
		d.faults.Nodes = append(d.faults.Nodes, plugin.FaultNode{Addr: rpl.Addr(), Clock: rpl.Clock()})
	}

	onComplete := d.win.OnComplete

	// Correct clients.
	nextAddr := simnet.Addr(w.PBFT.N)
	d.clients = make([]*pbft.Client, 0, correctClients)
	for i := int64(0); i < correctClients; i++ {
		c, err := pbft.NewClient(nextAddr, w.PBFT, w.Correct, d.net,
			pbft.WithOnComplete(onComplete), pbft.WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("cluster: client construction: %v", err))
		}
		nextAddr++
		d.clients = append(d.clients, c)
	}

	// Malicious clients: correct-behaving until a scenario arms its MAC
	// corruption plan (their injector still counts generateMAC calls from
	// boot, exactly like an instrumented binary would).
	d.malicious = make([]*pbft.Client, 0, nMalicious)
	for i := int64(0); i < nMalicious; i++ {
		m, err := pbft.NewClient(nextAddr, w.PBFT, w.Malicious, d.net,
			pbft.WithInjector(faultinject.NewInjector(faultinject.Plan{})), pbft.WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("cluster: malicious client construction: %v", err))
		}
		nextAddr++
		d.malicious = append(d.malicious, m)
	}

	for _, c := range d.clients {
		c.Start()
	}
	for _, m := range d.malicious {
		m.Start()
	}
	d.eng.RunFor(w.Warmup)
	return d
}

// Capture takes the post-warmup snapshot every run restores from.
func (d *deployment) Capture() {
	s := &deploymentSnapshot{
		eng:     d.eng.Snapshot(),
		net:     d.net.Snapshot(),
		oracles: d.oracles.Snapshot(),
	}
	for _, rep := range d.replicas {
		s.replicas = append(s.replicas, rep.Snapshot())
	}
	for _, c := range d.clients {
		s.clients = append(s.clients, c.Snapshot())
	}
	for _, m := range d.malicious {
		s.malicious = append(s.malicious, m.Snapshot())
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
	d.oracles.Restore(s.oracles) // also detaches per-run checkers
	for i, rep := range d.replicas {
		rep.Restore(s.replicas[i])
	}
	for i, c := range d.clients {
		c.Restore(s.clients[i])
	}
	for i, m := range d.malicious {
		m.Restore(s.malicious[i])
		// Disarm: the plan and broadcast flag are arm-time settings, not
		// snapshot state — a master now serves attack forks and baseline
		// forks alike, so a fork that arms nothing must get a client as
		// benign as the post-warmup original.
		m.SetPlan(faultinject.NewPlan())
		m.SetBroadcast(false)
	}
	*d.byz = pbft.ByzantineBehavior{}
	d.win.Reset()
}

// park ends a run: the window's message memory and the oracle tables go
// back to the Runner's pool, so a parked master retains only what its
// snapshot references and the next fork — of this master or any other —
// carves the same chunks. Nothing reads the window's objects afterwards:
// the result is already extracted, and Restore overwrites every pointer
// to them. park is idempotent, and only Restore may follow it.
func (d *deployment) park() {
	d.mem.Rewind()
	d.oracles.Park()
}

// Arm activates the scenario's faults and per-run checkers at measurement
// start; withFaults=false strips every malicious element (baseline).
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
	d.oracles.Attach(extra...)
	if !withFaults {
		return
	}
	w := d.w

	maskCoord := sc.GetOr(plugin.DimMACMask, 0)
	mask := uint64(maskCoord)
	if !w.BinaryMask {
		mask = graycode.Encode(uint64(maskCoord))
	}
	slowPrimary := sc.GetOr(plugin.DimSlowPrimary, 0) == 1
	collude := slowPrimary && sc.GetOr(plugin.DimCollude, 0) == 1
	slowInterval := time.Duration(sc.GetOr(plugin.DimSlowIntervalMS, 0)) * time.Millisecond
	reorderPct := sc.GetOr(plugin.DimReorderPct, 0)
	reorderDelay := time.Duration(sc.GetOr(plugin.DimReorderDelayMS, 0)) * time.Millisecond
	dropCall := sc.GetOr(plugin.DimDropCall, 0)
	dropLen := sc.GetOr(plugin.DimDropLen, 0)

	// Network-level tools.
	if reorderPct > 0 && reorderDelay > 0 {
		d.net.AddInterceptor(simnet.NewReorderer(w.Seed+7, float64(reorderPct)/100, reorderDelay))
	}

	// Client-level tools: MAC corruption per the mask, plus collusion.
	d.byz.SlowPrimary = slowPrimary
	d.byz.SlowInterval = slowInterval
	d.byz.Equivocate = w.Equivocate
	for _, m := range d.malicious {
		m.SetPlan(faultinject.NewPlan(faultinject.Rule{
			Point:    pbft.PointGenerateMAC,
			Trigger:  faultinject.ModMask{Mask: mask, Period: uint64(w.MaskBits)},
			Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
		}))
		if collude {
			m.SetBroadcast(true) // seeds the backups' request timers
			if d.byz.ColludeWith == nil {
				d.byz.ColludeWith = make(map[simnet.Addr]bool)
			}
			d.byz.ColludeWith[m.Addr()] = true
		}
	}
	if dropLen > 0 && len(d.malicious) > 0 {
		d.net.AddInterceptor(newDropWindow(d.malicious[0].Addr(), uint64(dropCall), uint64(dropLen)))
	}
	d.replicas[d.byzIdx].ApplyByzantine()

	// Fault vocabulary v2 (DESIGN.md §10); every axis is off at its
	// minimum, so legacy scenarios arm exactly what they used to.
	plugin.ArmFaults(sc, &d.faults)
}

// pickCrashVictim chooses the crash-restart attacker's next victim: the
// current primary is the highest-value target — killing it forces a view
// change, and killing it with durable-state loss discards the log the
// view change needs — with round-robin as the fallback. A replica that
// already died of a protocol defect is never struck or revived.
func (d *deployment) pickCrashVictim(strikes uint64) int {
	for _, rpl := range d.replicas {
		if crashed, _ := rpl.Crashed(); !crashed && rpl.IsPrimary() && !rpl.InViewChange() {
			return rpl.ID()
		}
	}
	for i := range d.replicas {
		rpl := d.replicas[(int(strikes)+i)%len(d.replicas)]
		if crashed, _ := rpl.Crashed(); !crashed {
			return rpl.ID()
		}
	}
	return -1
}

// Measure runs the given measurement window and collects the scenario
// outcome.
func (d *deployment) Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (core.Result, Report) {
	res, p99 := core.MeasureWindow(&d.win, d.clients, sc, window, stepBudget)
	rep := Report{CorrectCompleted: d.win.Completed(), P99Latency: p99}
	for _, c := range d.clients {
		rep.Retransmissions += c.Stats().Retransmissions
	}
	for _, m := range d.malicious {
		rep.MaliciousCompleted += m.Stats().Completed
	}
	for _, rpl := range d.replicas {
		st := rpl.Stats()
		rep.ViewsInstalled += st.ViewsInstalled
		rep.TimerViewChanges += st.TimerViewChanges
		rep.RejectedBatches += st.RejectedBatches
		rep.RejectedRequests += st.RejectedRequests
		rep.StateTransfers += st.StateTransfers
		rep.Crashes += st.Crashes
		rep.Restarts += st.Restarts
		rep.FinalViews = append(rep.FinalViews, rpl.View())
		if crashed, reason := rpl.Crashed(); crashed {
			rep.CrashedReplicas = append(rep.CrashedReplicas, rpl.ID())
			rep.CrashReasons = append(rep.CrashReasons, reason)
		}
	}
	res.CrashedReplicas = len(rep.CrashedReplicas)
	res.ViewChanges = rep.ViewsInstalled
	res.InjectedCrashes = rep.Crashes
	res.Restarts = rep.Restarts
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	d.park()
	return res, rep
}
