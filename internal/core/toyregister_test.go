package core_test

// A toy third system under test: a primary-backup register over
// sim/simnet. It exists to show what a target has to supply for the
// generic Harness — a deployment on a core.Rig with the state it keeps, a
// key function and a plugin list — and
// to run the target contract (internal/core/targettest) and the harness
// tests with no PBFT or Raft in the loop. Closed-loop clients write to the
// primary, the primary replicates each write to the backup, and
// acknowledges the client once the backup has; the fault tools delay the
// replication link and leak window memory.

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/core/targettest"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

const (
	dimRegClients = "reg_clients" // closed-loop writers
	dimRegLagMS   = "reg_lag_ms"  // extra primary->backup latency (0 = off)
	dimRegLeakMB  = "reg_leak_mb" // window memory the primary leaks per write (0 = off)

	regPrimary simnet.Addr = 0
	regBackup  simnet.Addr = 1

	regLatency    = 500 * time.Microsecond
	regLatencyRef = 50 * time.Millisecond
	// regWarmup captures a quarter-round before the acknowledgements of
	// every client's tenth write land, so they are in flight.
	regWarmup = 19750 * time.Microsecond
)

// regAxis is a plugin over one of the toy's axes; it mutates by jumping
// anywhere on it.
func regAxis(d scenario.Dimension) core.Plugin {
	return core.Plugin{Name: d.Name, Dims: []scenario.Dimension{d}, Mutate: func(parent scenario.Scenario, _ float64, rng *rand.Rand) scenario.Scenario {
		return parent.With(d.Name, d.Value(rng.Int63n(d.Count())))
	}}
}

// regLeakMB is a sixteenth of the window-memory ceiling: a leaking window
// crosses it on its seventeenth write.
const regLeakMB = slab.WindowCeiling >> 24

var (
	regClients = regAxis(scenario.Dimension{Name: dimRegClients, Min: 2, Max: 8, Step: 2, Structural: true})
	regLag     = regAxis(scenario.Dimension{Name: dimRegLagMS, Min: 0, Max: 10, Step: 1})
	regLeak    = regAxis(scenario.Dimension{Name: dimRegLeakMB, Min: 0, Max: regLeakMB, Step: regLeakMB})
)

func regKey(sc scenario.Scenario) int64 { return sc.GetOr(dimRegClients, 4) }

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
	c.sentAt = c.d.Eng.Now()
	c.d.Net.Send(c.addr, regPrimary, &regWrite{client: c.addr, seq: c.seq})
}

func (c *regClient) handle(_ simnet.Addr, payload any) {
	if ack := payload.(*regAck); ack.seq == c.seq {
		c.onComplete(c.seq, c.d.Eng.Now().Sub(c.sentAt))
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

// regTarget is what the toy keeps outside the harness: counters the
// harness tests read.
type regTarget struct {
	*core.Harness[int64, *regDeployment, regReport]
	builds atomic.Int64
	// buildDelay and measureDelay make the phase timers observable.
	buildDelay, measureDelay time.Duration
	// What Measure was asked for: unarmed windows run, and the latest
	// unarmed window and attack budget.
	baselineWindows, lastBaselineWindow atomic.Int64
	lastAttackBudget                    atomic.Uint64
	lastUnarmed                         atomic.Pointer[core.Result]
}

func newRegTarget(spec core.HarnessSpec[int64, *regDeployment]) *regTarget {
	t := &regTarget{}
	spec.Name = "register"
	spec.Plugins = []core.Plugin{regClients, regLag}
	spec.ClientsDim = dimRegClients
	spec.Key = regKey
	spec.Build = t.newDeployment
	t.Harness = core.NewHarness[int64, *regDeployment, regReport](spec)
	return t
}

var _ core.Target = (*regTarget)(nil)

type regDeployment struct {
	*core.Rig
	t       *regTarget
	nodes   [2]regNode
	clients []*regClient
	junk    *slab.Span[byte] // what the leak axis leaks into
	leak    int
	attack  bool
}

func (t *regTarget) newDeployment(clients int64) *regDeployment {
	t.builds.Add(1)
	time.Sleep(t.buildDelay)
	d := &regDeployment{t: t, Rig: core.NewRig("register", t.Pool(), 1, simnet.Config{BaseLatency: regLatency}, "register")}
	d.junk = slab.NewSpan[byte](d.Mem)
	d.Net.Handle(regPrimary, d.primary)
	d.Net.Handle(regBackup, d.backup)
	d.Keep(func() func() { nodes := d.nodes; return func() { d.nodes, d.leak = nodes, 0 } }) // and disarms the leak
	for i := int64(0); i < clients; i++ {
		c := &regClient{addr: regBackup + 1 + simnet.Addr(i), d: d, onComplete: d.OnComplete}
		d.Net.Handle(c.addr, c.handle)
		d.clients = append(d.clients, c)
		d.Keep(func() func() { s := *c; return func() { *c = s } })
		c.write()
	}
	d.Eng.RunFor(regWarmup)
	return d
}

func (d *regDeployment) apply(node int, w *regWrite) {
	d.nodes[node].value = *w
	d.nodes[node].version++
	d.Oracle.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: d.nodes[node].version, Digest: uint64(w.client)<<32 | w.seq})
}

func (d *regDeployment) primary(from simnet.Addr, payload any) {
	switch m := payload.(type) {
	case *regWrite:
		d.apply(0, m)
		if d.leak > 0 {
			d.junk.Get(d.leak)
		}
		d.Net.Send(regPrimary, regBackup, m)
	case *regAck:
		d.Net.Send(regPrimary, m.client, m)
	}
}

func (d *regDeployment) backup(_ simnet.Addr, payload any) {
	w := payload.(*regWrite)
	d.apply(1, w)
	d.Net.Send(regBackup, regPrimary, (*regAck)(w))
}

func (d *regDeployment) Arm(sc scenario.Scenario, attack bool) {
	d.attack = attack
	if !attack {
		return
	}
	if lag := sc.GetOr(dimRegLagMS, 0); lag > 0 {
		extra := time.Duration(lag)*time.Millisecond - regLatency
		d.Net.AddInterceptor(simnet.InterceptorFunc(func(m *simnet.Message) simnet.Verdict {
			if m.From == regPrimary && m.To == regBackup {
				m.ExtraDelay = extra
			}
			return simnet.VerdictDeliver
		}))
	}
	d.leak = int(sc.GetOr(dimRegLeakMB, 0)) << 20
}

func (d *regDeployment) Measure(sc scenario.Scenario, window time.Duration, stepBudget uint64) (core.Result, regReport) {
	time.Sleep(d.t.measureDelay)
	if d.attack {
		d.t.lastAttackBudget.Store(stepBudget)
	} else {
		d.t.baselineWindows.Add(1)
		d.t.lastBaselineWindow.Store(int64(window))
	}
	res, p99 := core.MeasureWindow(d.Rig, d.clients, sc, window, stepBudget)
	rep := regReport{
		Completed: d.Completed(), P99Latency: p99,
		PrimaryVersion: d.nodes[0].version, BackupVersion: d.nodes[1].version,
	}
	d.Finish(&res)
	if !d.attack {
		d.t.lastUnarmed.Store(&res)
	}
	return res, rep
}

// The target contract on the toy, one check per test: it is what proves
// the suite protocol-neutral. The toy's messages are heap objects, so it
// makes no claim that a run/restore cycle allocates nothing.

func TestHarnessColdEqualsEveryFork(t *testing.T)      { regContract(t).ForkedEqualsCold(t, "register") }
func TestHarnessRunOnFromCaptureThenFork(t *testing.T) { regContract(t).RunOnFromCapture(t) }
func TestHarnessBaselineForkedEqualsCold(t *testing.T) { regContract(t).Baseline(t, "register") }
func TestHarnessQueueHooksNeutral(t *testing.T)        { regContract(t).QueueHooks(t, "register") }
func TestHarnessAllOffMeasuresBaseline(t *testing.T) {
	regContract(t).AllOff(t, regSpec(), regLatencyRef, 2, 8)
}
func TestHarnessQueueHooksNeutralCampaign(t *testing.T)        { regContract(t).QueueHooksCampaign(t) }
func TestHarnessWindowCeilingCostsOneTest(t *testing.T)        { regContract(t).Hung(t) }
func TestHarnessParkedMastersHoldNoLeases(t *testing.T)        { regContract(t).Retention(t, "register") }
func TestHarnessWindowDispatchCounts(t *testing.T)             { regContract(t).Pin(t, "lagged window") }
func TestHarnessRunnerDeterministic(t *testing.T)              { regContract(t).Deterministic(t, "register") }
func TestHarnessConcurrentForks(t *testing.T)                  { regContract(t).ConcurrentForks(t, "register") }
func TestHarnessParallelCampaignDeterminism(t *testing.T)      { regContract(t).CampaignDeterministic(t) }
func TestHarnessStructuralMarkerMatchesMasterKey(t *testing.T) { regContract(t).StructuralKey(t) }
func FuzzForkEqualsCold(f *testing.F)                          { targettest.FuzzForkEqualsCold(f, regContract(f)) }

func regSpec() core.HarnessSpec[int64, *regDeployment] {
	return core.HarnessSpec[int64, *regDeployment]{Measure: 200 * time.Millisecond, LatencyRef: regLatencyRef}
}

func regSpace(tb testing.TB, plugins ...core.Plugin) *scenario.Space {
	tb.Helper()
	space, err := core.Space(plugins...)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

func regScenario(tb testing.TB, clients, lagMS int64) scenario.Scenario {
	return regSpace(tb, regClients, regLag).New(map[string]int64{dimRegClients: clients, dimRegLagMS: lagMS})
}

type regWorkload = core.HarnessSpec[int64, *regDeployment]

func regContract(tb testing.TB) targettest.Internals[regWorkload, int64, *regDeployment, regReport] {
	at := func(clients, lagMS int64) scenario.Scenario { return regScenario(tb, clients, lagMS) }
	spec := regSpec()
	budgeted := regSpec()
	budgeted.StepBudget = 100_000
	target := func(_ testing.TB, spec regWorkload) targettest.Target[int64, *regDeployment, regReport] {
		t := newRegTarget(spec)
		return targettest.Target[int64, *regDeployment, regReport]{
			Harness: t.Harness, Measure: spec.Measure,
			Build: func(sc scenario.Scenario) *regDeployment { return t.newDeployment(regKey(sc)) },
		}
	}
	return targettest.Internals[regWorkload, int64, *regDeployment, regReport]{
		Spec: targettest.Spec[regWorkload, regReport]{
			New: func(tb testing.TB, spec regWorkload) targettest.Runner[regReport] { return target(tb, spec).Harness },
			Groups: []targettest.Group[regWorkload, regReport]{{
				Name: "register", W: spec,
				Cases: []targettest.Case[regReport]{
					{Name: "lag, writes in flight at the capture", Scenario: at(4, 2), Exercised: func(res core.Result, rep regReport) bool {
						return res.Impact > 0 && rep.Completed > 0 && rep.PrimaryVersion >= rep.BackupVersion && len(res.Violations) == 0
					}},
					{Name: "longer lag", Scenario: at(4, 4)},
					{Name: "two clients", Scenario: at(2, 1)},
					{Name: "eight clients", Scenario: at(8, 3)},
					{Name: "unarmed", Scenario: at(6, 0)},
				},
			}},
			// No shipped scenario reaches the window-memory ceiling any more, so
			// the toy leaks on purpose: a window that crosses it is stopped and
			// reported like an exhausted step budget, on the same event cold and
			// forked (a restore carves nothing, so both windows lease alike).
			Storm: targettest.Storm[regWorkload]{
				W: spec,
				Scenario: regSpace(tb, regClients, regLag, regLeak).New(map[string]int64{
					dimRegClients: 4, dimRegLagMS: 1, dimRegLeakMB: regLeakMB,
				}),
				Error: "window-memory ceiling",
				Calm:  at(4, 1),
			},
			Campaign: budgeted,
		},
		Target:     target,
		Window:     func(d *regDeployment) *core.Rig { return d.Rig },
		Key:        regKey,
		Space:      regSpace(tb, regClients, regLag),
		Structural: []string{dimRegClients},
		// A write acknowledged within one latency of the capture was in
		// flight at it.
		InFlight: map[string]func(*regDeployment) bool{
			"register": func(d *regDeployment) bool {
				writes := func() (n uint64) {
					for _, c := range d.clients {
						n += c.seq
					}
					return n
				}
				before := writes()
				d.Eng.RunFor(regLatency - time.Nanosecond)
				return writes() > before
			},
		},
		Pins: []targettest.Pin[regWorkload, *regDeployment]{
			// Four writers over a 2 ms lag move in lock step, so each of a
			// write's four deliveries rides one train with the other writers'.
			{Name: "lagged window", W: spec, Scenario: at(4, 2), Armed: true, Window: spec.Measure,
				Executed: 916, Dispatches: 229},
		},
		Fuzz: spec,
		FuzzSeeds: []targettest.FuzzSeed{
			{Point: map[string]int64{dimRegLagMS: 3}, Pops: []byte{0, 3}, Order: 0b110, EagerResets: true},
		},
	}
}
