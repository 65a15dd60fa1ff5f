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
	"avd/internal/simnet"
)

// deployment is one instantiated PBFT cluster bound to its own engine.
// Construction is fault-neutral: every scenario-specific tool (MAC
// corruption plans, Byzantine behaviors, interceptors) arms at
// measurement start, which is what lets one warm deployment serve many
// tests — the warmup prefix is shared, scenarios only diverge once
// fault injection begins (DESIGN.md §14). A deployment is single-run at a
// time and not safe for concurrent use; the Runner's master cache hands
// each worker its own.
type deployment struct {
	*core.Rig
	w         Workload
	replicas  []*pbft.Replica
	byz       *pbft.ByzantineBehavior // attached to replica byzIdx, zero = inert
	byzIdx    int                     // which replica carries byz (Workload.ByzantineReplica, clamped)
	clients   []*pbft.Client
	malicious []*pbft.Client

	// faults addresses the replicas for the fault-vocabulary-v2 axes.
	faults plugin.FaultSite
}

var _ core.Deployment[Report] = (*deployment)(nil)

// newDeployment builds, starts and warms up a fault-neutral deployment
// with the given client population.
func (r *Runner) newDeployment(key masterKey) *deployment {
	w := r.w
	correctClients, nMalicious := key.correct, key.malicious
	d := &deployment{
		Rig:    core.NewRig("cluster", r.Pool(), w.Seed, w.Net, "pbft"),
		w:      w,
		byz:    &pbft.ByzantineBehavior{},
		byzIdx: w.ByzantineReplica,
	}
	arena := pbft.NewArena(d.Mem)
	if d.byzIdx < 0 || d.byzIdx >= w.PBFT.N {
		d.byzIdx = 0
	}
	d.Net.SetOwner(arena)

	// The oracle observes every replica's executions: no two
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
			d.Oracle.Observe(oracle.Event{Kind: oracle.EventLeader, Node: node, Term: view})
		}
	})
	for i := 0; i < w.PBFT.N; i++ {
		id := i
		opts := []pbft.ReplicaOption{
			pbft.WithCrashOnBadReproposal(w.CrashOnBadReproposal),
			pbft.WithCommitObserver(func(seq, digest uint64) {
				d.Oracle.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: seq, Digest: digest})
			}),
			viewObs,
			pbft.WithArena(arena),
		}
		if i == d.byzIdx {
			// The potential Byzantine replica: behavior fields stay zero
			// (a correct replica) until a scenario arms them, and every
			// restore zeroes them again.
			opts = append(opts, pbft.WithByzantine(d.byz))
			d.Keep(func() func() { return func() { *d.byz = pbft.ByzantineBehavior{} } })
		}
		rep, err := pbft.NewReplica(i, w.PBFT, d.Net, opts...)
		if err != nil {
			panic(fmt.Sprintf("cluster: replica construction: %v", err)) // config was validated
		}
		d.replicas = append(d.replicas, rep)
		// Restore borrows the tables a window grows, and park hands them
		// back.
		d.Keep(func() func() { s := rep.Snapshot(); return func() { rep.Restore(s) } })
		d.OnPark(rep.Park)
	}

	d.faults = plugin.FaultSite{
		Eng: d.Eng, Net: d.Net, Obs: d.Oracle,
		PickVictim: d.pickCrashVictim,
		Crash:      func(node int, keepDurable bool) bool { return d.replicas[node].Crash(keepDurable) },
		Restart:    func(node int) { d.replicas[node].Restart() },
		Corrupt:    pbft.Corrupt,
	}
	for _, rpl := range d.replicas {
		d.faults.Nodes = append(d.faults.Nodes, plugin.FaultNode{Addr: rpl.Addr(), Clock: rpl.Clock()})
	}

	onComplete := d.OnComplete

	// Correct clients.
	nextAddr := simnet.Addr(w.PBFT.N)
	d.clients = make([]*pbft.Client, 0, correctClients)
	for i := int64(0); i < correctClients; i++ {
		c, err := pbft.NewClient(nextAddr, w.PBFT, w.Correct, d.Net,
			pbft.WithOnComplete(onComplete), pbft.WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("cluster: client construction: %v", err))
		}
		nextAddr++
		d.clients = append(d.clients, c)
		d.Keep(func() func() { s := c.Snapshot(); return func() { c.Restore(s) } })
	}

	// Malicious clients: correct-behaving until a scenario arms its MAC
	// corruption plan (they still count generateMAC calls from boot,
	// exactly like an instrumented binary would).
	d.malicious = make([]*pbft.Client, 0, nMalicious)
	for i := int64(0); i < nMalicious; i++ {
		m, err := pbft.NewClient(nextAddr, w.PBFT, w.Malicious, d.Net,
			pbft.WithClientArena(arena))
		if err != nil {
			panic(fmt.Sprintf("cluster: malicious client construction: %v", err))
		}
		nextAddr++
		d.malicious = append(d.malicious, m)
		// The plan and broadcast flag are arm-time settings: a master
		// serves attack forks and baseline forks alike, so a restore
		// disarms them, and a fork that arms nothing gets a client as
		// benign as the post-warmup original.
		d.Keep(func() func() {
			s := m.Snapshot()
			return func() {
				m.Restore(s)
				m.SetPlan(faultinject.NewPlan())
				m.SetBroadcast(false)
			}
		})
	}

	for _, c := range d.clients {
		c.Start()
	}
	for _, m := range d.malicious {
		m.Start()
	}
	d.Eng.RunFor(w.Warmup)
	return d
}

// Arm activates the scenario's faults at measurement start;
// withFaults=false strips every malicious element (baseline).
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool) {
	if !withFaults {
		return
	}
	w := d.w

	mask := graycode.Encode(uint64(sc.GetOr(plugin.DimMACMask, 0)))
	slowPrimary := sc.GetOr(plugin.DimSlowPrimary, 0) == 1
	collude := slowPrimary && sc.GetOr(plugin.DimCollude, 0) == 1
	slowInterval := time.Duration(sc.GetOr(plugin.DimSlowIntervalMS, 0)) * time.Millisecond
	reorderPct := sc.GetOr(plugin.DimReorderPct, 0)
	reorderDelay := time.Duration(sc.GetOr(plugin.DimReorderDelayMS, 0)) * time.Millisecond
	dropCall := sc.GetOr(plugin.DimDropCall, 0)
	dropLen := sc.GetOr(plugin.DimDropLen, 0)

	// Network-level tools.
	if reorderPct > 0 && reorderDelay > 0 {
		d.Net.AddInterceptor(simnet.NewReorderer(w.Seed+7, float64(reorderPct)/100, reorderDelay))
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
		d.Net.AddInterceptor(newDropWindow(d.malicious[0].Addr(), uint64(dropCall), uint64(dropLen)))
	}
	d.replicas[d.byzIdx].ApplyByzantine()

	// The shared fault axes (DESIGN.md §13). Each is off at its minimum,
	// so a scenario outside the -faults space arms only the tools above.
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
	res, p99 := core.MeasureWindow(d.Rig, d.clients, sc, window, stepBudget)
	rep := Report{CorrectCompleted: d.Completed(), P99Latency: p99}
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
	d.Finish(&res)
	return res, rep
}
