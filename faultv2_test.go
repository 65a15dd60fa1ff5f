package avd_test

// Fault vocabulary v2 (DESIGN.md §13): crash-restart with
// durable-state loss, per-node clock skew, asymmetric partitions, and
// per-link corruption/duplication. The headline vulnerability: a
// crash-restart schedule that loses a follower's durable vote record
// breaks Raft Election Safety — two leaders in the same term — while the
// identical schedule with durable state intact, and every scenario the old
// delay/drop/partition/flap vocabulary can express, leaves the invariant
// standing. This is the class of bug the enlarged hyperspace exists to
// reach. That every new fault forks exactly as it runs cold is part of
// each target's contract (internal/core/targettest).

import (
	"runtime"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

func raftFaultV2Space(tb testing.TB) *scenario.Space {
	tb.Helper()
	space, err := core.Space(
		raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(5),
		plugin.NewOneWay(5), plugin.NewNetFaults(5, true, true),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// TestCrashRestartStateLossBreaksElectionSafety is the acceptance test
// of the crash-restart fault: a deterministic scenario where a node
// crash that loses durable state produces an Election Safety violation
// no old-vocabulary scenario reproduces.
//
// The schedule: a 50 ms crash cadence keeps an election perpetually
// unresolved; the attacker's vote-aware victim selection crashes a
// follower that granted its vote while the election is still open.
// Restarted without its durable state the follower has forgotten the
// grant, votes again in the same term, and two candidates assemble
// majorities for the same term.
func TestCrashRestartStateLossBreaksElectionSafety(t *testing.T) {
	space := raftFaultV2Space(t)
	r, err := raftsim.NewRunner(raftsim.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}

	lossy := space.New(map[string]int64{
		raftsim.DimClients:        10,
		plugin.DimCrashIntervalMS: 50,
		plugin.DimCrashDownMS:     25,
		plugin.DimCrashLose:       1,
	})
	res, rep := r.RunReport(lossy)
	if !oracle.Violated(res.Violations, "raft/election-safety") {
		t.Fatalf("state-losing crash-restart schedule did not break election safety: violations=%v report=%+v",
			oracle.Names(res.Violations), rep)
	}
	if rep.Crashes == 0 || rep.Restarts == 0 {
		t.Fatalf("attacker idle: %d crashes, %d restarts", rep.Crashes, rep.Restarts)
	}
	if res.InjectedCrashes != rep.Crashes || res.Restarts != rep.Restarts {
		t.Fatalf("Result fault counters diverge from report: result %d/%d, report %d/%d",
			res.InjectedCrashes, res.Restarts, rep.Crashes, rep.Restarts)
	}

	// The identical schedule with durable state intact: the restarted
	// follower remembers its vote, and the invariant holds. The state
	// loss — not the crash — is the vulnerability.
	durable := lossy.With(plugin.DimCrashLose, 0)
	dres, drep := r.RunReport(durable)
	if oracle.Violated(dres.Violations, "raft/election-safety") {
		t.Fatalf("durable crash-restart broke election safety: violations=%v", oracle.Names(dres.Violations))
	}
	if drep.Crashes == 0 {
		t.Fatalf("durable variant injected no crashes; nothing was compared")
	}

	// The old fault vocabulary cannot express this bug: no leader-flap
	// schedule (the prior attacker: symmetric partition of the leader,
	// any cadence x any outage length) trips the invariant.
	flapPoints := [][2]int64{
		{50, 25}, {50, 50}, {100, 400}, {200, 175}, {400, 200},
		{500, 400}, {850, 75}, {1000, 25},
	}
	if !testing.Short() {
		flapPoints = flapPoints[:0]
		for interval := int64(50); interval <= 1000; interval += 50 {
			for down := int64(25); down <= 400; down += 25 {
				flapPoints = append(flapPoints, [2]int64{interval, down})
			}
		}
	}
	for _, p := range flapPoints {
		sc := space.New(map[string]int64{
			raftsim.DimClients:        10,
			raftsim.DimFlapIntervalMS: p[0],
			raftsim.DimFlapDownMS:     p[1],
		})
		fres, _ := r.RunReport(sc)
		if oracle.Violated(fres.Violations, "raft/election-safety") {
			t.Fatalf("old-vocabulary flap scenario %s also breaks election safety; the crash fault adds nothing",
				sc.Key())
		}
	}
}

// TestRaftCrashCampaignLosesNoVerdict: `avd -target raft -strategy
// coverage -faults crash -seed 1` is the campaign that used to die of
// memory on its second test (PR 14), and then lost 8 verdicts in 40 to
// the 512 MB window ceiling that contained it: the leader copied its
// whole unacknowledged log into every AppendEntries, and a crashed peer
// acknowledges nothing. Messages alias the log now (ISSUE 17), so every
// test of the campaign must come back with a verdict — crash faults are
// where PR 6 found real Raft bugs — inside a 512 MB heap (the contained
// campaign was allowed 2 GB).
func TestRaftCrashCampaignLosesNoVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 30-test campaign")
	}
	setup, err := campaign.Build(campaign.Config{
		Target: "raft", Strategy: "coverage", Faults: "crash", Tests: 30, Seed: 1,
		Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(30))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("campaign finished %d of 30 tests", len(results))
	}
	crashes := uint64(0)
	for i, res := range results {
		if res.Errored() {
			t.Errorf("test %d came back without a verdict (hung=%v): %s", i+1, res.Hung, res.Error)
		}
		crashes += res.InjectedCrashes
	}
	if crashes == 0 {
		t.Error("the campaign injected no crash; nothing was tested")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys >= 512<<20 {
		t.Errorf("HeapSys = %d MB after the campaign, want < 512 MB", ms.HeapSys>>20)
	}
}
