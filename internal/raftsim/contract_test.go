package raftsim

import (
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/core/targettest"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

type contract = targettest.Internals[Workload, int64, *deployment, Report]

// The target contract (internal/core/targettest) on Raft, one check per
// test. The forked == cold groups of the fault vocabulary, the queue-hook
// campaigns, the workers=4 campaign and the runaway storm's verdict drive
// Raft through its exported API alone, and run from the root package's
// contract_test.go.

func TestBaselineForkedEqualsCold(t *testing.T) { raftContract(t).Baseline(t, "populations") }

// TestBaselineWindowForkedEqualsCold: the same at the owned-messages
// capture, client replies in flight.
func TestBaselineWindowForkedEqualsCold(t *testing.T) { raftContract(t).Baseline(t, "owned messages") }

func TestOwnedMessagesForkedEqualsCold(t *testing.T) {
	raftContract(t).ForkedEqualsCold(t, "owned messages")
}

// TestAllOffMeasuresBaseline: with every axis at its minimum, nothing
// arms, so the run measures its baseline exactly.
func TestAllOffMeasuresBaseline(t *testing.T) {
	w := DefaultWorkload()
	raftContract(t).AllOff(t, w, w.LatencyRef, 5, 10, 50)
}

func TestRunOnFromCaptureThenFork(t *testing.T)     { raftContract(t).RunOnFromCapture(t) }
func TestStormHungSameWithSplitTrains(t *testing.T) { raftContract(t).Hung(t) }
func TestParkedMastersHoldNoLeases(t *testing.T)    { raftContract(t).Retention(t, "populations") }
func TestRaftRestoreAllocFree(t *testing.T)         { raftContract(t).RestoreAllocFree(t, "populations") }
func TestStormWindowLease(t *testing.T)             { raftContract(t).Pin(t, "storm window lease") }
func TestFaultStormWindowLease(t *testing.T)        { raftContract(t).Pin(t, "fault storm window lease") }

func TestWindowDispatchCounts(t *testing.T) {
	s := raftContract(t)
	t.Run("golden", func(t *testing.T) { s.Pin(t, "golden window") })
	t.Run("storm", func(t *testing.T) { s.Pin(t, "storm window") })
}

func TestForkedStormAllocs(t *testing.T)   { raftContract(t).Pin(t, "storm fork") }
func TestRunnerDeterministic(t *testing.T) { raftContract(t).Deterministic(t, "populations") }

func TestConcurrentForksAreDeterministic(t *testing.T) {
	raftContract(t).ConcurrentForks(t, "populations")
}

func TestStructuralMarkerMatchesMasterKey(t *testing.T) { raftContract(t).StructuralKey(t) }
func FuzzForkEqualsCold(f *testing.F)                   { targettest.FuzzForkEqualsCold(f, raftContract(f)) }

// contractTarget is the Raft target over the hyperspace `avd -target raft
// -faults crash,skew,oneway,corrupt,dup` explores.
func contractTarget(tb testing.TB, w Workload) targettest.Target[int64, *deployment, Report] {
	r, err := NewTarget(w, NewClientsPlugin(), NewLeaderFlapPlugin(), plugin.NewCrashRestart(),
		plugin.NewClockSkew(5), plugin.NewOneWay(5), plugin.NewNetFaults(5, true, true))
	if err != nil {
		tb.Fatal(err)
	}
	return targettest.Target[int64, *deployment, Report]{
		Harness: r.Harness, Measure: w.Measure,
		Build: func(sc scenario.Scenario) *deployment { return r.newDeployment(populationOf(sc)) },
	}
}

// windows is the default workload with another warm-up, window and step
// budget.
func windows(warmup, measure time.Duration, budget uint64) Workload {
	w := DefaultWorkload()
	w.Warmup, w.Measure, w.StepBudget = warmup, measure, budget
	return w
}

func raftContract(tb testing.TB) contract {
	space := allFaultsSpace(tb)
	at := func(point map[string]int64) scenario.Scenario { return space.New(point) }
	type pt = map[string]int64
	const c = DimClients
	golden, goldenPoint := goldenWorkload()
	storm := at(pt{c: 50, DimFlapIntervalMS: 300, DimFlapDownMS: 200})

	return contract{
		Spec: targettest.Spec[Workload, Report]{
			New: func(tb testing.TB, w Workload) targettest.Runner[Report] { return contractTarget(tb, w).Harness },
			Groups: []targettest.Group[Workload, Report]{
				// Three populations, two of them attacked, on a warm-up long
				// enough that the windows run on a settled deployment.
				{Name: "populations", W: windows(500*time.Millisecond, 400*time.Millisecond, 0), Cases: []targettest.Case[Report]{
					{Name: "leader flap, 10 clients", Scenario: at(pt{c: 10, DimFlapIntervalMS: 100, DimFlapDownMS: 200})},
					{Name: "crash with state loss, 5 clients", Scenario: at(pt{c: 5, plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1})},
					{Name: "25 clients", Scenario: at(pt{c: 25})},
				}},
				// Every single-recipient message goes back to the arena when its
				// delivery has run (DESIGN.md §20). The ten clients move in lock
				// step, one 2 ms round after another, and a round's client replies
				// are on the wire for a quarter of it: the default warm-up captures
				// between them, this one does not. Every fork delivers them again
				// (the first through the live trains, which no delivery dirtied); a
				// dup fault puts two deliveries behind one payload; corruption
				// swaps the payload for a copy; and crashes lose state.
				{Name: "owned messages", W: windows(500750*time.Microsecond, 300*time.Millisecond, 300_000), Cases: []targettest.Case[Report]{
					{Name: "unarmed", Scenario: at(pt{c: 10})},
					{Name: "dup on one node's links", Scenario: at(pt{c: 10, plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2})},
					{Name: "corrupt on one node's links", Scenario: at(pt{c: 10, plugin.DimCorruptMask: 0xA5, plugin.DimNetFaultFrom: 2})},
					{Name: "crash with state loss", Scenario: at(pt{c: 10, plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1})},
				}},
			},
			// With one batch in flight per follower no window of the Raft space
			// runs away (the corrupt+dup resend storm this was is gone,
			// EXPERIMENTS.md), so the watchdog is reached by a budget below
			// what a busy window needs: 50 clients with every message
			// duplicated fire some 90,000 events in 800 ms, the calm 10-client
			// window some 14,000. The budget stops it in the middle of a train.
			Storm: targettest.Storm[Workload]{
				W:        windows(300*time.Millisecond, 800*time.Millisecond, 50_000),
				Scenario: at(busy),
				Error:    "step budget",
				Calm:     at(pt{c: 10}),
			},
		},
		Target:     contractTarget,
		Window:     func(d *deployment) *core.Rig { return d.Rig },
		Key:        populationOf,
		Space:      space,
		Structural: []string{c},
		// A request that completes within one latency of the capture was
		// answered by a ClientReply, an owned message, in flight.
		InFlight: map[string]func(*deployment) bool{
			"owned messages": func(d *deployment) bool {
				completed := func() (n uint64) {
					for _, c := range d.cs {
						n += c.Stats().Completed
					}
					return n
				}
				before := completed()
				d.Eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
				return completed() > before
			},
		},
		Parked: func(tb testing.TB, d *deployment) {
			for _, n := range d.nodes {
				if n.log != nil {
					tb.Errorf("parked master: node %d still holds a %d-entry log buffer", n.id, cap(n.log))
				}
				if len(n.retired) > 0 {
					tb.Errorf("parked master: node %d still holds %d retired log arrays", n.id, len(n.retired))
				}
			}
		},
		Pins: []targettest.Pin[Workload, *deployment]{
			// The benchmark's storm probe: 50 clients, the leader isolated for
			// 200 ms every 300 ms, a 1.5 s window. Every message is a
			// fixed-size object and every one with a single recipient goes back
			// to its slab when its delivery has run, so the window carves what
			// it has in flight at once plus the broadcast RequestVotes, and all
			// of that fits in the chunks the capture kept: 0 chunks, against 1
			// while every client request sent every follower an append, 100
			// (3,276,752 bytes) while every message stayed carved until the
			// rewind and 683 (22,375,832 bytes) while AppendEntries copied
			// their entries. A change that moves it changed what the window
			// sends, what a message costs or which messages go back; update
			// the figure only with that explanation.
			{Name: "storm window lease", W: DefaultWorkload(), Armed: true, Window: 1500 * time.Millisecond,
				Scenario: storm, Check: leasesNothing},
			// The storm and the golden leader-flap pair run exactly this many
			// callbacks from exactly this many queue events. A node's fan-out
			// to its peers and the replies that come back at one instant each
			// ride one sim.Stream train; election and heartbeat timers do not,
			// so the ratio is smaller than PBFT's. Executed moves only if the
			// window sends or arms something else; Dispatches moves if a change
			// schedules anything for the delivery instant between two sends and
			// silently stops trains forming. Update either figure only with
			// that explanation.
			//
			// Resets and Requeues (fields three and four of ROADMAP 1(a)'s Cost
			// record) pin the lazy path of the election, heartbeat and client
			// retry timers: every AppendEntries received and every client
			// request sent re-arms one through Engine.Reset, and Resets counts
			// the calls that moved no queue node, Requeues the nodes the
			// re-arms cost after all — stale ones the dispatcher re-keyed plus
			// moves to an earlier instant. Resets falling or Requeues climbing
			// means timers stopped being re-armed in place.
			//
			// The storm's figures were 76,416 callbacks from 1,080 events,
			// 37,816 resets and 413 requeues while every client request sent
			// every follower an append: one batch in flight per follower cut
			// the appends, so their acks and the election-timer resets they
			// bring, and fewer deliveries share a train.
			{Name: "storm window", W: DefaultWorkload(), Armed: true, Window: 1500 * time.Millisecond,
				Scenario: storm, Executed: 16_654, Dispatches: 1_575, Resets: 8_105, Requeues: 353},
			{Name: "golden window", W: golden, Armed: true, Window: golden.Measure,
				Scenario: goldenSpace(tb).New(goldenPoint),
				Executed: 658, Dispatches: 262, Resets: 307, Requeues: 48},
			// A window cut by its step budget with deliveries queued, each
			// holding its message: the busiest window of the space (50
			// clients, every message duplicated) stopped at 100,000 events. A
			// duplicate adds a holder and the last delivery to run puts the
			// message back, and what the queue holds at the budget fits in the
			// chunks the capture kept. This
			// pin held the corrupt+dup ack storm at the 2M-event budget of a
			// default campaign, whose backlog leased 480 chunks (15 MB); flow
			// control left that point 2,926 events a window. A change that
			// moves it changed what the window sends, what a message costs or
			// which messages go back; update the figure only with that
			// explanation.
			{Name: "fault storm window lease", W: DefaultWorkload(), Armed: true, Window: 1500 * time.Millisecond,
				Scenario: at(busy), StepBudget: 100_000, Check: leasesNothing},
			// With its master and baseline in place, a forked leader-flap storm
			// (10 clients, the leader isolated for 200 ms every 500 ms, 1.5 s
			// window) allocates at most 12 objects — the heal callback each
			// strike schedules, arming, the baseline lookup — and 1 KB:
			// messages and logs come from the pool. Twice a run a deposed
			// leader truncates below its aliasing mark (Check), and the copy
			// is a borrowed buffer too; while it was a fresh array the size
			// of the log, a run allocated 409,816 bytes. (Every 300 ms, the
			// flap never truncates below the mark in this window.)
			{Name: "storm fork", W: windows(500*time.Millisecond, 1500*time.Millisecond, 0),
				Scenario: at(pt{c: 10, DimFlapIntervalMS: 500, DimFlapDownMS: 200}), ForkAllocs: 12, ForkBytes: 1 << 10,
				Armed: true, Window: 1500 * time.Millisecond, Check: func(tb testing.TB, d *deployment) {
					retired := 0
					for _, n := range d.nodes {
						retired += len(n.retired)
					}
					if retired != 2 {
						tb.Errorf("the window truncated below the aliasing mark %d times, want 2", retired)
					}
				}},
		},
		Fuzz: windows(300*time.Millisecond, 400*time.Millisecond, 100_000),
		FuzzSeeds: []targettest.FuzzSeed{
			// Crashes with state loss, under link duplication.
			{Point: pt{plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1,
				plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2}, Pops: []byte{3, 5, 9}, Order: 0b011010, SplitTrains: true, EagerResets: true},
		},
	}
}

// leasesNothing pins a window's lease at zero, which Pin.Lease cannot: the
// chunks the capture kept hold all the window has in flight at once.
func leasesNothing(tb testing.TB, d *deployment) {
	if n := d.Mem.Held() - d.Mem.Owned(); n != 0 {
		tb.Errorf("chunks leased: %d, want exactly 0", n)
	}
}

// busy is the busiest window of the Raft space: 50 clients, every message
// duplicated.
var busy = map[string]int64{DimClients: 50, plugin.DimDupMask: 0xFF}
