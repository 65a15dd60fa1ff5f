package core

// A toy third system under test: a primary-backup register over
// sim/simnet. It exists to show what a target has to supply for the
// generic Harness — a deployment, a key function and a plugin list — and
// to let harness_test.go exercise the harness with no PBFT or Raft in
// the loop. Closed-loop clients write to the primary, the primary
// replicates each write to the backup, and acknowledges the client once
// the backup has; the one fault tool delays the replication link.

import (
	"sync/atomic"
	"time"

	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

const (
	dimRegClients = "reg_clients" // closed-loop writers
	dimRegLagMS   = "reg_lag_ms"  // extra primary->backup latency (0 = off)

	regPrimary simnet.Addr = 0
	regBackup  simnet.Addr = 1
)

type regWrite struct { // client -> primary -> backup
	client simnet.Addr
	seq    uint64
}
type regAck regWrite // backup -> primary -> client

// regNode is the primary or the backup: the register is the last write
// applied, version counts them.
type regNode struct {
	value   regWrite
	version uint64
}

// regClient issues its next write when the previous one is acknowledged.
type regClient struct {
	addr       simnet.Addr
	d          *regDeployment
	seq        uint64
	sentAt     sim.Time
	onComplete func(seq uint64, latency time.Duration)
}

func (c *regClient) Outstanding() (sim.Time, bool) { return c.sentAt, c.seq > 0 }

func (c *regClient) write() {
	c.seq++
	c.sentAt = c.d.eng.Now()
	c.d.net.Send(c.addr, regPrimary, &regWrite{client: c.addr, seq: c.seq})
}

func (c *regClient) handle(_ simnet.Addr, payload any) {
	if ack := payload.(*regAck); ack.seq == c.seq {
		c.onComplete(c.seq, c.d.eng.Now().Sub(c.sentAt))
		c.write()
	}
}

// regReport is the toy's detailed report.
type regReport struct {
	Completed      uint64
	PrimaryVersion uint64
	BackupVersion  uint64
	P99Latency     time.Duration
}

// regTarget is what the toy keeps outside the harness: the pool its
// deployments lease from, and counters the harness tests read.
type regTarget struct {
	*Harness[int64, *regDeployment, regReport]
	pool   slab.Pool
	builds atomic.Int64
	// buildDelay and measureDelay make the phase timers observable.
	buildDelay, measureDelay time.Duration
	// leak is a defect switched on by a test: the bytes the primary
	// carves from the window arena, and never uses, per write it
	// replicates during an attack window.
	leak int
	// What Measure was asked for: unarmed windows run, and the latest
	// unarmed window and attack budget.
	baselineWindows, lastBaselineWindow atomic.Int64
	lastAttackBudget                    atomic.Uint64
}

func newRegTarget(spec HarnessSpec[int64, *regDeployment]) *regTarget {
	t := &regTarget{}
	spec.Name = "register"
	spec.Plugins = []Plugin{
		&gridPlugin{name: "clients", dim: scenario.Dimension{Name: dimRegClients, Min: 2, Max: 8, Step: 2}},
		&gridPlugin{name: "lag", dim: scenario.Dimension{Name: dimRegLagMS, Min: 0, Max: 4, Step: 1}},
	}
	spec.ClientsDim = dimRegClients
	spec.Key = func(sc scenario.Scenario) int64 { return sc.GetOr(dimRegClients, defaultClients) }
	spec.Build = t.newDeployment
	t.Harness = NewHarness[int64, *regDeployment, regReport](spec)
	return t
}

var _ Target = (*regTarget)(nil)

type regDeployment struct {
	t       *regTarget
	eng     *sim.Engine
	net     *simnet.Network
	oracles *oracle.Set
	cov     *oracle.CoverageChecker
	nodes   [2]regNode
	clients []*regClient
	mem     *slab.Arena
	junk    *slab.Span[byte] // what regTarget.leak leaks into
	win     Window
	attack  bool
	snap    *regSnapshot
}

type regSnapshot struct {
	eng     *sim.Snapshot
	net     *simnet.NetSnapshot
	oracles []any
	nodes   [2]regNode
	clients []regClient
}

func (t *regTarget) newDeployment(clients int64) *regDeployment {
	t.builds.Add(1)
	time.Sleep(t.buildDelay)
	cov := oracle.NewCoverage()
	d := &regDeployment{t: t, eng: sim.New(1), cov: cov}
	d.oracles = oracle.NewSet(oracle.NewAgreementIn(&t.pool, "register"), cov)
	d.net = simnet.New(d.eng, simnet.Config{BaseLatency: 500 * time.Microsecond})
	d.mem = slab.NewArena(&t.pool, d.eng.Stop)
	d.junk = slab.NewSpan[byte](d.mem)
	d.win = Window{Name: "register", Eng: d.eng, Mem: d.mem}
	d.net.Handle(regPrimary, d.primary)
	d.net.Handle(regBackup, d.backup)
	for i := int64(0); i < clients; i++ {
		c := &regClient{addr: regBackup + 1 + simnet.Addr(i), d: d, onComplete: d.win.OnComplete}
		d.net.Handle(c.addr, c.handle)
		d.clients = append(d.clients, c)
		c.write()
	}
	d.eng.RunFor(20 * time.Millisecond)
	return d
}

func (d *regDeployment) apply(node int, w *regWrite) {
	d.nodes[node].value = *w
	d.nodes[node].version++
	d.oracles.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: d.nodes[node].version, Digest: uint64(w.client)<<32 | w.seq})
}

func (d *regDeployment) primary(from simnet.Addr, payload any) {
	switch m := payload.(type) {
	case *regWrite:
		d.apply(0, m)
		if d.attack && d.t.leak > 0 {
			d.junk.Get(d.t.leak)
		}
		d.net.Send(regPrimary, regBackup, m)
	case *regAck:
		d.net.Send(regPrimary, m.client, m)
	}
}

func (d *regDeployment) backup(_ simnet.Addr, payload any) {
	w := payload.(*regWrite)
	d.apply(1, w)
	d.net.Send(regBackup, regPrimary, (*regAck)(w))
}

func (d *regDeployment) Capture() {
	s := &regSnapshot{eng: d.eng.Snapshot(), net: d.net.Snapshot(), oracles: d.oracles.Snapshot(), nodes: d.nodes}
	for _, c := range d.clients {
		s.clients = append(s.clients, *c)
	}
	d.mem.Capture()
	d.snap = s
}

func (d *regDeployment) Restore() {
	d.park()
	d.eng.Restore(d.snap.eng)
	d.net.Restore(d.snap.net)
	d.oracles.Restore(d.snap.oracles)
	d.nodes = d.snap.nodes
	for i, c := range d.clients {
		*c = d.snap.clients[i]
	}
	d.win.Reset()
}

func (d *regDeployment) park() {
	d.mem.Rewind()
	d.oracles.Park()
}

func (d *regDeployment) Arm(sc scenario.Scenario, attack bool, extra ...oracle.Checker) {
	d.oracles.Attach(extra...)
	d.attack = attack
	if lag := sc.GetOr(dimRegLagMS, 0); attack && lag > 0 {
		d.net.SetLinkLatency(regPrimary, regBackup, time.Duration(lag)*time.Millisecond)
	}
}

func (d *regDeployment) Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (Result, regReport) {
	time.Sleep(d.t.measureDelay)
	if d.attack {
		d.t.lastAttackBudget.Store(stepBudget)
	} else {
		d.t.baselineWindows.Add(1)
		d.t.lastBaselineWindow.Store(int64(window))
	}
	res, p99 := MeasureWindow(&d.win, d.clients, sc, window, stepBudget)
	rep := regReport{
		Completed: d.win.Completed(), P99Latency: p99,
		PrimaryVersion: d.nodes[0].version, BackupVersion: d.nodes[1].version,
	}
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	d.park()
	return res, rep
}
