package main

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/faultinject"
	"avd/internal/mac"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// probePasses is how many times each probe body is timed; the minimum is
// reported: a probe does a fixed amount of deterministic work per pass,
// so noise can only add to it.
const probePasses = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// timePasses runs body probePasses times and returns the fastest pass in
// seconds.
func timePasses(body func()) float64 {
	walls := make([]float64, probePasses)
	for i := range walls {
		start := time.Now()
		body()
		walls[i] = time.Since(start).Seconds()
	}
	return slices.Min(walls)
}

// perOp times n iterations of op per pass and returns the fastest pass's
// cost per iteration in seconds.
func perOp(n int, op func(i int)) float64 {
	return timePasses(func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	}) / float64(n)
}

// nopTarget is a core.Target whose tests cost nothing, for pricing the
// engine's own dispatch.
type nopTarget struct{ plugins []core.Plugin }

func (nopTarget) Run(sc scenario.Scenario) core.Result { return core.Result{Scenario: sc} }
func (nopTarget) Name() string                         { return "nop" }
func (t nopTarget) Plugins() []core.Plugin             { return t.plugins }

// layerProbes measures the workload-independent unit cost of each layer
// through its public functions. Counts (commits, oracle events) are exact
// and must not move under a simulator-only speed-up.
func layerProbes() (map[string]float64, error) {
	m := make(map[string]float64)

	// sim: steady-state timer churn, and run-then-rewind.
	{
		e := sim.New(1)
		fn := func() {}
		for i := 0; i < 1024; i++ { // warm the free list and heap
			e.Schedule(time.Duration(i), fn)
		}
		e.Run()
		m["sim.event_ns"] = 1e9 * perOp(200_000, func(int) {
			e.Schedule(time.Microsecond, fn)
			e.Step()
		})

		const pending = 1024
		for i := 0; i < pending; i++ {
			e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
		}
		snap := e.Snapshot()
		m["sim.restore_us"] = 1e6 * perOp(200, func(int) {
			e.Run()
			e.Restore(snap)
		})
	}

	// simnet: one message end to end, clean and with link faults armed.
	{
		e := sim.New(1)
		net := simnet.New(e, simnet.Config{BaseLatency: 500 * time.Microsecond})
		net.Handle(0, func(simnet.Addr, any) {})
		net.Handle(1, func(from simnet.Addr, payload any) { sink += payload.(uint64) })
		var payload any = uint64(7) // small enough that boxing never allocates
		send := func(int) {
			net.Send(0, 1, payload)
			e.Run()
		}
		for i := 0; i < 1024; i++ {
			send(i)
		}
		m["simnet.msg_ns"] = 1e9 * perOp(200_000, send)

		net.ArmLinkFaults(simnet.AnyAddr, simnet.AnyAddr, faultinject.NewPlan(
			faultinject.Rule{
				Point:    simnet.PointLinkCorrupt,
				Trigger:  faultinject.ModMask{Mask: 0b10100101, Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
			faultinject.Rule{
				Point:    simnet.PointLinkDup,
				Trigger:  faultinject.ModMask{Mask: 0b01011010, Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
		), func(_, _ simnet.Addr, payload any) any { return payload.(uint64) ^ 1 })
		m["simnet.faulty_msg_ns"] = 1e9 * perOp(200_000, send)
	}

	// mac: build a 4-replica authenticator and verify one entry.
	{
		ring := mac.NewKeyring(7)
		keys := []mac.Key{ring.Pairwise(9, 0), ring.Pairwise(9, 1), ring.Pairwise(9, 2), ring.Pairwise(9, 3)}
		m["mac.auth_ns"] = 1e9 * perOp(500_000, func(i int) {
			a := mac.NewAuthenticator(keys, uint64(i))
			if a.VerifyEntry(i&3, keys[i&3], uint64(i)) {
				sink++
			}
		})
	}

	// oracle: the checker set both targets ride, one event.
	{
		set := oracle.NewSet(oracle.NewAgreement("raft"), oracle.NewElectionSafety("raft"), oracle.NewCoverage())
		for seq := uint64(1); seq <= 4096; seq++ {
			for node := 0; node < 5; node++ {
				set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq * 31})
			}
		}
		m["oracle.observe_ns"] = 1e9 * perOp(500_000, func(i int) {
			seq := uint64(i%4096 + 1)
			set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: i % 5, Seq: seq, Digest: seq * 31})
		})
	}

	// scenario: the dedup key every explorer computes per proposal.
	pbftPlugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	pbftSpace, err := core.Space(pbftPlugins...)
	if err != nil {
		return nil, err
	}
	{
		rng := rand.New(rand.NewSource(1))
		scs := make([]scenario.Scenario, 256)
		for i := range scs {
			scs[i] = pbftSpace.Random(rng)
		}
		m["scenario.compact_ns"] = 1e9 * perOp(1_000_000, func(i int) {
			hi, lo := scs[i&255].Compact().Words()
			sink += hi ^ lo
		})
	}

	// core: engine + explorer bookkeeping per test, over a free target.
	{
		const budget = 5000
		m["core.engine.dispatch_us"] = 1e6 * timePasses(func() {
			eng, err := core.NewEngine(nopTarget{pbftPlugins},
				core.WithExplorer(core.NewRandomExplorer(pbftSpace, 1)), core.WithBudget(budget))
			if err == nil {
				_, err = eng.RunAll(context.Background())
			}
			if err != nil {
				panic(err) // a no-op campaign cannot fail
			}
		}) / budget
	}

	// pbft through its harness: a clean 100-client window, the Big MAC
	// window, and the oracle event count of the clean one.
	clean := pbftSpace.New(map[string]int64{plugin.DimMACMask: 0, plugin.DimCorrectClients: 100, plugin.DimMaliciousClients: 1})
	{
		w := cluster.DefaultWorkload()
		w.Measure = measure
		r, err := cluster.NewRunner(w)
		if err != nil {
			return nil, err
		}
		_, rep := r.RunForkReport(clean) // build the master and the baseline
		m["pbft.commits_per_test"] = float64(rep.CorrectCompleted)
		m["pbft.commit_us"] = 1e6 * timePasses(func() { r.RunFork(clean) }) / float64(rep.CorrectCompleted)
		_, _, events := r.RunTracedFork(clean)
		m["oracle.events_per_test"] = float64(len(events))

		bigMAC := pbftSpace.New(map[string]int64{
			plugin.DimMACMask:          0x3B2, // Gray-decodes to the 0xEEE mask
			plugin.DimCorrectClients:   30,
			plugin.DimMaliciousClients: 1,
		})
		r.RunFork(bigMAC)
		m["pbft.viewchange_test_ms"] = 1e3 * timePasses(func() { r.RunFork(bigMAC) })
	}

	// harness fixed costs: a 1 ms window leaves restore + arm + score
	// (forked) or build + warm-up (cold).
	{
		w := cluster.DefaultWorkload()
		w.Measure = time.Millisecond
		r, err := cluster.NewRunner(w)
		if err != nil {
			return nil, err
		}
		r.RunFork(clean)
		m["harness.fork_test_us"] = 1e6 * perOp(20, func(int) { r.RunFork(clean) })
		m["harness.cold_test_ms"] = 1e3 * timePasses(func() { r.Run(clean) })
	}

	// raftsim through its harness: a clean window and an election storm.
	{
		w := raftsim.DefaultWorkload()
		w.Measure = measure
		r, err := raftsim.NewRunner(w)
		if err != nil {
			return nil, err
		}
		space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
		if err != nil {
			return nil, err
		}
		calm := space.New(map[string]int64{raftsim.DimClients: 50})
		_, rep := r.RunForkReport(calm)
		m["raftsim.commit_us"] = 1e6 * timePasses(func() { r.RunFork(calm) }) / float64(rep.Completed)

		storm := space.New(map[string]int64{raftsim.DimClients: 50, raftsim.DimFlapIntervalMS: 300, raftsim.DimFlapDownMS: 200})
		r.RunFork(storm)
		m["raftsim.storm_test_ms"] = 1e3 * timePasses(func() { r.RunFork(storm) })
	}
	return m, nil
}
