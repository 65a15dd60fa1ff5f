package avd_test

// The target contract (internal/core/targettest, DESIGN.md §15) on both
// shipped targets through their exported API alone: forked == cold across
// the fault vocabulary, queue-hook neutrality, concurrent forks, workers=4
// campaigns and the runaway storm. The checks that reach into a
// deployment run in the targets' own packages (contract_test.go there).

import (
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/core/targettest"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

func TestForkedEqualsColdPBFT(t *testing.T) { pbftContract(t).ForkedEqualsCold(t, "faults") }

// TestForkedEqualsColdFaultV2PBFT: the crash-restart faults exercise the
// replica persistence seam (durable agreement log against volatile
// protocol bookkeeping).
func TestForkedEqualsColdFaultV2PBFT(t *testing.T) { pbftContract(t).ForkedEqualsCold(t, "fault v2") }

func TestForkedEqualsColdPBFTOracleVerdicts(t *testing.T) {
	pbftContract(t).ForkedEqualsCold(t, "injected defect")
}

func TestForkedEqualsColdRaft(t *testing.T)        { raftContract(t).ForkedEqualsCold(t, "leader flap") }
func TestForkedEqualsColdFaultV2Raft(t *testing.T) { raftContract(t).ForkedEqualsCold(t, "fault v2") }

func TestForkedEqualsColdRaftOracleVerdicts(t *testing.T) {
	raftContract(t).ForkedEqualsCold(t, "election-safety witness")
}

// TestDeltaRestoreInterleavedPBFT: one master restored over and over in
// an order that alternates heavy forks (a healthy window, thousands of
// dirtied slots) with light ones (a collapsed window), so a slot the
// dirty tracking misses shows as a divergence on a later fork.
func TestDeltaRestoreInterleavedPBFT(t *testing.T) {
	pbftContract(t).ForkedEqualsCold(t, "interleaved")
}

// TestDeltaRestoreInterleavedRaft: the same on Raft, whose flaps dirty the
// network's partition maps as well as the engine arena.
func TestDeltaRestoreInterleavedRaft(t *testing.T) {
	raftContract(t).ForkedEqualsCold(t, "interleaved")
}

// TestForkedEqualsColdPoisonedPool: forks of three populations of one
// attack interleave on one target, each carving its window out of pool
// memory another master used last and the pool filled with garbage.
func TestForkedEqualsColdPoisonedPool(t *testing.T) {
	raftContract(t).ForkedEqualsCold(t, "populations")
}

func TestTrainsNeutralTracedRuns(t *testing.T) {
	t.Run("pbft", func(t *testing.T) {
		s := pbftContract(t)
		s.QueueHooks(t, "faults")
		s.QueueHooks(t, "fault v2")
	})
	t.Run("raft", func(t *testing.T) {
		s := raftContract(t)
		s.QueueHooks(t, "leader flap")
		s.QueueHooks(t, "fault v2")
	})
}

func TestTrainsNeutralFaultCampaigns(t *testing.T) {
	t.Run("pbft", func(t *testing.T) { pbftContract(t).QueueHooksCampaign(t) })
	t.Run("raft", func(t *testing.T) { raftContract(t).QueueHooksCampaign(t) })
}

// TestRunawayScenarioDegradesToHung: the step-budget watchdog degrades a
// Raft window past its budget to a Hung result instead of burning
// wall-clock forever.
func TestRunawayScenarioDegradesToHung(t *testing.T) { raftContract(t).Hung(t) }

func TestConcurrentForksAreDeterministic(t *testing.T) {
	pbftContract(t).ConcurrentForks(t, "faults")
}

// TestParallelCampaignDeterminism: determinism is per (seed, workers);
// different worker counts legitimately explore different proposals.
func TestParallelCampaignDeterminism(t *testing.T) {
	t.Run("pbft", func(t *testing.T) { pbftContract(t).CampaignDeterministic(t) })
	t.Run("raft", func(t *testing.T) { raftContract(t).CampaignDeterministic(t) })
}

// pbftContract is the PBFT target over the hyperspace `avd -faults
// crash,skew,oneway,corrupt,dup` explores.
func pbftContract(tb testing.TB) targettest.Spec[cluster.Workload, cluster.Report] {
	faults := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(4), plugin.NewOneWay(4), plugin.NewNetFaults(4, true, true)}
	space, err := core.Space(append([]core.Plugin{plugin.NewReorder(), plugin.NewFaultPlan(), plugin.NewSlowPrimary()}, faults...)...)
	if err != nil {
		tb.Fatal(err)
	}
	at := func(point map[string]int64) scenario.Scenario { return space.New(point) }
	type pt = map[string]int64
	const c, m = plugin.DimCorrectClients, plugin.DimMaliciousClients
	windows := func(warmup, measure time.Duration, budget uint64) cluster.Workload {
		w := cluster.DefaultWorkload()
		w.Warmup, w.Measure, w.StepBudget = warmup, measure, budget
		return w
	}
	short := windows(200*time.Millisecond, 600*time.Millisecond, 0)
	defect := short
	defect.PBFT.QuorumBug, defect.Equivocate = true, true

	return targettest.Spec[cluster.Workload, cluster.Report]{
		New: func(tb testing.TB, w cluster.Workload) targettest.Runner[cluster.Report] {
			r, err := cluster.NewTarget(w, faults...)
			if err != nil {
				tb.Fatal(err)
			}
			return r
		},
		Groups: []targettest.Group[cluster.Workload, cluster.Report]{
			// Every fault tool of the paper's vocabulary: MAC corruption, a
			// slow primary with collusion, reordering, drop windows.
			{Name: "faults", W: short, Cases: []targettest.Case[cluster.Report]{
				{Name: "MAC mask", Scenario: at(pt{plugin.DimMACMask: 0xEEE, c: 20, m: 1})},
				{Name: "slow primary colluding", Scenario: at(pt{c: 10, m: 1, plugin.DimSlowPrimary: 1, plugin.DimCollude: 1, plugin.DimSlowIntervalMS: 400})},
				{Name: "reorder and drop window", Scenario: at(pt{plugin.DimMACMask: 0x0F0, c: 20, m: 2, plugin.DimReorderPct: 40, plugin.DimReorderDelayMS: 10,
					plugin.DimDropCall: 5, plugin.DimDropLen: 20})},
			}},
			{Name: "interleaved", W: short, Cases: []targettest.Case[cluster.Report]{
				{Name: "healthy", Scenario: at(pt{c: 20, m: 1})},
				{Name: "collapsed by the MAC mask", Scenario: at(pt{plugin.DimMACMask: 0xEEE, c: 20, m: 1})},
				{Name: "slow primary colluding", Scenario: at(pt{c: 20, m: 1, plugin.DimSlowPrimary: 1, plugin.DimCollude: 1, plugin.DimSlowIntervalMS: 400})},
			}},
			{Name: "fault v2", W: short, Cases: []targettest.Case[cluster.Report]{
				{Name: "crash with state loss", Scenario: at(pt{c: 10, m: 1, plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1})},
				{Name: "crash, durable", Scenario: at(pt{c: 10, m: 1, plugin.DimCrashIntervalMS: 150, plugin.DimCrashDownMS: 100})},
				{Name: "clock skew", Scenario: at(pt{c: 10, m: 1, plugin.DimSkewNode: 2, plugin.DimSkewPermille: 300})},
				{Name: "one-way partition", Scenario: at(pt{c: 10, m: 1, plugin.DimOneWayVictim: 2, plugin.DimOneWayDir: 1})},
				{Name: "corrupt and dup", Scenario: at(pt{c: 10, m: 1, plugin.DimCorruptMask: 0x55, plugin.DimDupMask: 0xAA})},
				{Name: "every fault at once", Scenario: at(pt{c: 10, m: 1, plugin.DimMACMask: 0x0F0,
					plugin.DimCrashIntervalMS: 200, plugin.DimCrashDownMS: 75, plugin.DimCrashLose: 1,
					plugin.DimSkewNode: 3, plugin.DimSkewPermille: 200, plugin.DimOneWayVictim: 1,
					plugin.DimCorruptMask: 0x0F, plugin.DimDupMask: 0xF0, plugin.DimNetFaultFrom: 1})},
			}},
			// An equivocating primary and the quorum defect: an executed
			// agreement violation, reported by forks as by cold runs.
			{Name: "injected defect", W: defect, Cases: []targettest.Case[cluster.Report]{
				{Name: "agreement violation", Scenario: at(pt{c: 10, m: 1}),
					Exercised: func(res core.Result, _ cluster.Report) bool { return res.Violated("pbft/agreement") }},
			}},
		},
		Campaign: windows(300*time.Millisecond, 500*time.Millisecond, 100_000),
	}
}

// raftContract is the Raft target over the hyperspace `avd -target raft
// -faults crash,skew,oneway,corrupt,dup` explores.
func raftContract(tb testing.TB) targettest.Spec[raftsim.Workload, raftsim.Report] {
	space := raftFaultV2Space(tb)
	at := func(point map[string]int64) scenario.Scenario { return space.New(point) }
	type pt = map[string]int64
	const c = raftsim.DimClients
	windows := func(warmup, measure time.Duration, budget uint64) raftsim.Workload {
		w := raftsim.DefaultWorkload()
		w.Warmup, w.Measure, w.StepBudget = warmup, measure, budget
		return w
	}
	flap := func(clients, interval, down int64) scenario.Scenario {
		return at(pt{c: clients, raftsim.DimFlapIntervalMS: interval, raftsim.DimFlapDownMS: down})
	}
	busy := at(pt{c: 50, plugin.DimDupMask: 0xFF})
	window := windows(300*time.Millisecond, 800*time.Millisecond, 0)

	return targettest.Spec[raftsim.Workload, raftsim.Report]{
		New: func(tb testing.TB, w raftsim.Workload) targettest.Runner[raftsim.Report] {
			r, err := raftsim.NewTarget(w, raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin(), plugin.NewCrashRestart(),
				plugin.NewClockSkew(5), plugin.NewOneWay(5), plugin.NewNetFaults(5, true, true))
			if err != nil {
				tb.Fatal(err)
			}
			return r
		},
		Groups: []targettest.Group[raftsim.Workload, raftsim.Report]{
			{Name: "leader flap", W: window, Cases: []targettest.Case[raftsim.Report]{
				{Name: "leader flap", Scenario: flap(10, 100, 200)},
				{Name: "unarmed", Scenario: at(pt{c: 25})},
			}},
			{Name: "populations", W: window, Cases: []targettest.Case[raftsim.Report]{
				{Name: "5 clients", Scenario: flap(5, 100, 200)},
				{Name: "10 clients", Scenario: flap(10, 100, 200)},
				{Name: "25 clients", Scenario: flap(25, 100, 200)},
			}},
			{Name: "interleaved", W: windows(300*time.Millisecond, 600*time.Millisecond, 0), Cases: []targettest.Case[raftsim.Report]{
				// Nothing but the engine clock and client state dirty.
				{Name: "clean", Scenario: at(pt{c: 8})},
				// Partitions flap, terms inflate, maps churn.
				{Name: "election storm", Scenario: flap(8, 250, 200)},
				// Long isolation windows, a different timer footprint.
				{Name: "slow flap", Scenario: flap(8, 500, 450)},
			}},
			{Name: "fault v2", W: window, Cases: []targettest.Case[raftsim.Report]{
				{Name: "crash with state loss", Scenario: at(pt{c: 10, plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1})},
				{Name: "crash, durable", Scenario: at(pt{c: 10, plugin.DimCrashIntervalMS: 150, plugin.DimCrashDownMS: 100})},
				{Name: "clock skew", Scenario: at(pt{c: 10, plugin.DimSkewNode: 2, plugin.DimSkewPermille: 400})},
				{Name: "one-way partition, inbound", Scenario: at(pt{c: 10, plugin.DimOneWayVictim: 1, plugin.DimOneWayDir: 1})},
				{Name: "one-way partition, outbound", Scenario: at(pt{c: 10, plugin.DimOneWayVictim: 3})},
				// Half of every node's messages garbled, on a schedule whose
				// period is the eight messages a stalled heartbeat round
				// sends: the leader must still commit.
				{Name: "corrupt", Scenario: at(pt{c: 10, plugin.DimCorruptMask: 0xA5}),
					Exercised: func(_ core.Result, rep raftsim.Report) bool { return rep.Completed > 0 }},
				{Name: "dup from one node", Scenario: at(pt{c: 10, plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2})},
				{Name: "every fault at once", Scenario: at(pt{c: 10, plugin.DimCrashIntervalMS: 200, plugin.DimCrashDownMS: 75,
					plugin.DimCrashLose: 1, plugin.DimSkewNode: 4, plugin.DimSkewPermille: 200,
					plugin.DimOneWayVictim: 2, plugin.DimOneWayDir: 1,
					plugin.DimCorruptMask: 0x11, plugin.DimDupMask: 0x22})},
			}},
			// The crash schedule that breaks Election Safety once a restarted
			// follower has forgotten its vote: forks report the violation as
			// cold runs do.
			{Name: "election-safety witness", W: raftsim.DefaultWorkload(), Cases: []targettest.Case[raftsim.Report]{
				{Name: "crash with state loss", Scenario: at(pt{c: 10, plugin.DimCrashIntervalMS: 50, plugin.DimCrashDownMS: 25, plugin.DimCrashLose: 1}),
					Exercised: func(res core.Result, _ raftsim.Report) bool { return res.Violated("raft/election-safety") }},
			}},
		},
		// With one batch in flight per follower no window of the Raft space
		// runs away, so the watchdog is reached by a budget below what a busy
		// window needs: 50 clients with every message duplicated fire some
		// 90,000 events in 800 ms, the calm 10-client window some 14,000.
		Storm: targettest.Storm[raftsim.Workload]{
			W:        windows(300*time.Millisecond, 800*time.Millisecond, 50_000),
			Scenario: busy,
			Error:    "step budget",
			Calm:     at(pt{c: 10}),
		},
		// A 10,000-event budget, below what the busier 500 ms windows fire,
		// puts four of the 30 tests into it, so windows end inside a train.
		Campaign:      windows(500*time.Millisecond, 500*time.Millisecond, 10_000),
		CampaignHangs: true,
	}
}
