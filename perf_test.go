// Micro-benchmarks, and the allocation asserts behind them, for hot paths
// no benchmark/ probe reports: simnet fan-out rounds, in-place timer
// re-arms, oracle observation and the parallel campaign. A figure a probe
// does report (benchmark/probes.go) lives there and nowhere else.
package avd_test

import (
	"runtime"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// fanoutNet is the traffic shape the campaign workloads have, with the
// protocol taken out: node 0 sends to 250 peers at one instant and every
// peer answers, so a round is 500 messages landing on two instants.
// Without jitter each instant's deliveries ride one sim.Stream train;
// with jitter every delivery has an instant, and so a queue event, of
// its own — the two ends of what simnet can ask of the engine.
func fanoutNet(jitter time.Duration) (e *sim.Engine, net *simnet.Network, round func()) {
	const peers = 250
	e = sim.New(1)
	net = simnet.New(e, simnet.Config{BaseLatency: 500 * time.Microsecond, Jitter: jitter})
	var payload any = uint64(7) // small enough that boxing never allocates
	net.Handle(0, func(simnet.Addr, any) {})
	for p := simnet.Addr(1); p <= peers; p++ {
		net.Handle(p, func(simnet.Addr, any) { net.Send(p, 0, payload) })
	}
	return e, net, func() {
		for p := simnet.Addr(1); p <= peers; p++ {
			net.Send(0, p, payload)
		}
		e.Run()
	}
}

func benchmarkSimnetRounds(b *testing.B, jitter time.Duration) {
	e, _, round := fanoutNet(jitter)
	for i := 0; i < 8; i++ { // warm the train and slot pools
		round()
	}
	executed, dispatches := e.Executed(), e.Dispatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	executed, dispatches = e.Executed()-executed, e.Dispatches()-dispatches
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executed), "ns/msg")
	b.ReportMetric(float64(executed)/float64(dispatches), "msgs/event")
}

// BenchmarkSimnetFanout: same-instant deliveries, 250 to a train.
func BenchmarkSimnetFanout(b *testing.B) { benchmarkSimnetRounds(b, 0) }

// BenchmarkSimnetJitter: the worst case for trains, one delivery each.
func BenchmarkSimnetJitter(b *testing.B) { benchmarkSimnetRounds(b, 200*time.Microsecond) }

// TestSimnetRoundsAllocFree is the hard assert behind the two benchmarks:
// in the steady state a round allocates nothing at either end of the
// traffic, and neither does rolling back onto trains in flight — the
// rollback's discarded trains are what the next fork's
// copies are made of.
func TestSimnetRoundsAllocFree(t *testing.T) {
	for name, jitter := range map[string]time.Duration{"fanout": 0, "jitter": 200 * time.Microsecond} {
		e, net, round := fanoutNet(jitter)
		for i := 0; i < 8; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%s: a steady-state round allocates %.1f objects, want 0", name, allocs)
		}

		// Capture with the requests in flight; each fork delivers them and
		// is rolled back with the replies in flight.
		for p := simnet.Addr(1); p <= 250; p++ {
			net.Send(0, p, uint64(7))
		}
		esnap, nsnap := e.Snapshot(), net.Snapshot()
		fork := func() {
			e.RunFor(500 * time.Microsecond)
			if e.Pending() == 0 {
				t.Fatalf("%s: nothing in flight at the rollback", name)
			}
			e.Restore(esnap)
			net.Restore(nsnap)
		}
		for i := 0; i < 3; i++ {
			fork()
		}
		if allocs := testing.AllocsPerRun(20, fork); allocs != 0 {
			t.Errorf("%s: a run+restore cycle over trains in flight allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// timerChurn is raft's timer traffic with the protocol taken out: five
// timers, none ever due, each re-armed every 100 µs of virtual time. With
// shape "random" the deadlines are random, 150–300 ms on — a follower's
// election timer, pushed back by every AppendEntries; with "fixed" they are
// a fixed 50 ms on — the leader's heartbeat and a client's retry timer, so
// each re-arm is the queue's latest deadline. rearm is either Engine.Reset
// or the Stop + Schedule pair it replaces.
func timerChurn(shape string, rearm func(*sim.Engine, sim.Timer, time.Duration, func()) sim.Timer) (e *sim.Engine, round func()) {
	e = sim.New(1)
	fn := func() {}
	var timers [5]sim.Timer
	round = func() {
		e.RunFor(100 * time.Microsecond)
		for i, t := range timers {
			d := 50 * time.Millisecond
			if shape == "random" {
				d = 150*time.Millisecond + time.Duration(e.Rand().Int63n(int64(150*time.Millisecond)))
			}
			timers[i] = rearm(e, t, d, fn)
		}
	}
	// The heap and the free list reach their steady-state capacity.
	for i := 0; i < 2000; i++ {
		round()
	}
	return e, round
}

var timerRearms = map[string]func(*sim.Engine, sim.Timer, time.Duration, func()) sim.Timer{
	"reset": func(e *sim.Engine, t sim.Timer, d time.Duration, fn func()) sim.Timer {
		return e.Reset(t, e.Now().Add(d), fn)
	},
	"stop+schedule": func(e *sim.Engine, t sim.Timer, d time.Duration, fn func()) sim.Timer {
		t.Stop()
		return e.Schedule(d, fn)
	},
}

// BenchmarkTimerReset: one re-arm, both shapes, in place and as the pair.
func BenchmarkTimerReset(b *testing.B) {
	for _, shape := range []string{"random", "fixed"} {
		for _, how := range []string{"reset", "stop+schedule"} {
			b.Run(shape+"/"+how, func(b *testing.B) {
				_, round := timerChurn(shape, timerRearms[how])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += 5 {
					round()
				}
			})
		}
	}
}

// TestTimerResetAllocFree is the hard assert behind the benchmark: in the
// steady state a re-arm allocates nothing, in place or not, and in place
// is how Reset re-arms — but for a random deadline that falls before the
// node, and at the cost of re-queueing each node when it comes due stale.
func TestTimerResetAllocFree(t *testing.T) {
	for _, shape := range []string{"random", "fixed"} {
		for how, rearm := range timerRearms {
			e, round := timerChurn(shape, rearm)
			resets, requeues := e.Resets(), e.Requeues()
			const rounds = 5000 // 500 ms: every node comes due stale at least once
			if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 {
				t.Errorf("%s/%s: a round of re-arms allocates %.1f objects, want 0", shape, how, allocs)
			}
			resets, requeues = e.Resets()-resets, e.Requeues()-requeues
			if all := uint64(5 * (rounds + 1)); how == "reset" && (resets < all*99/100 || requeues < 5 || requeues > all/100) {
				t.Errorf("%s: %d of %d re-arms stayed in place and %d nodes were re-queued", shape, resets, all, requeues)
			}
			if how != "reset" && resets+requeues != 0 {
				t.Errorf("%s/%s: %d resets and %d re-queues without a Reset", shape, how, resets, requeues)
			}
		}
	}
}

// BenchmarkSnapshotOracleObserve is the oracle hot-path alloc guard: in
// the steady state (slices grown to the run's high-water mark) observing
// a commit or leadership event must not allocate.
func BenchmarkSnapshotOracleObserve(b *testing.B) {
	model := oracle.New(new(slab.Pool), "raft")
	for seq := uint64(1); seq <= 4096; seq++ {
		for node := 0; node < 5; node++ {
			model.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq * 31})
		}
	}
	model.Observe(oracle.Event{Kind: oracle.EventLeader, Node: 1, Term: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i%4096 + 1)
		model.Observe(oracle.Event{Kind: oracle.EventCommit, Node: i % 5, Seq: seq, Digest: seq * 31})
		model.Observe(oracle.Event{Kind: oracle.EventLeader, Node: i % 64 % 5, Term: uint64(i % 64)})
	}
}

// TestOracleObserveAllocFree is the hard assert behind the benchmark
// (logged, not asserted, under -race).
func TestOracleObserveAllocFree(t *testing.T) {
	model := oracle.New(new(slab.Pool), "pbft")
	for seq := uint64(1); seq <= 1024; seq++ {
		for node := 0; node < 4; node++ {
			model.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq})
		}
	}
	model.Observe(oracle.Event{Kind: oracle.EventLeader, Node: 0, Term: 256})
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seq = seq%1024 + 1
		model.Observe(oracle.Event{Kind: oracle.EventCommit, Node: int(seq) % 4, Seq: seq, Digest: seq})
		model.Observe(oracle.Event{Kind: oracle.EventLeader, Node: int(seq % 256 % 4), Term: seq % 256})
	})
	t.Logf("steady-state oracle Observe allocates %.1f objects per event", allocs)
	if allocs != 0 && !raceEnabled {
		t.Errorf("steady-state oracle Observe allocates %.1f objects per event, want 0", allocs)
	}

	// A deployment's run: restore the capture, observe a window that
	// diverges nowhere and outgrows the capture's log, park. Once the pool
	// stocks the grown table, a run allocates nothing.
	snap := model.Snapshot()
	run := func() {
		model.Restore(snap)
		for seq := uint64(1); seq <= 1536; seq++ {
			for node := 0; node < 4; node++ {
				model.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq})
			}
		}
		model.Observe(oracle.Event{Kind: oracle.EventLeader, Node: 1, Term: 257})
		model.Park()
	}
	run()
	allocs = testing.AllocsPerRun(10, run)
	t.Logf("a steady-state Restore, observe, Park cycle allocates %.1f objects", allocs)
	if allocs != 0 && !raceEnabled {
		t.Errorf("a steady-state Restore, observe, Park cycle allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkFig2AVDParallel is BenchmarkFig2AVD executed by the parallel
// campaign engine with all CPUs — the campaign-throughput headline.
func BenchmarkFig2AVDParallel(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	var best core.Result
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		results := runCampaign(b, runner, ctrl, 40, runtime.NumCPU())
		best = core.BestSoFar(results)[len(results)-1]
	}
	b.ReportMetric(best.Impact, "impact")
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
}
