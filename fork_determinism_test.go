package avd_test

// The snapshot/fork determinism contract (ISSUE 4, DESIGN.md §8): a
// forked run must be indistinguishable from a cold run of the same
// scenario — identical oracle-event trace, identical Result (impact,
// throughput, latency, violations), identical detailed report — and a
// master snapshot must be reusable for any number of forks.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/slab"
)

func pbftForkWorkload() cluster.Workload {
	w := cluster.DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	return w
}

func pbftForkSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(),
		&plugin.SlowPrimary{}, &plugin.Reorder{}, plugin.NewFaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// pbftForkScenarios exercises every fault tool the PBFT deployment arms:
// MAC corruption, slow primary with collusion, reordering, drop windows.
func pbftForkScenarios(t *testing.T) []scenario.Scenario {
	space := pbftForkSpace(t)
	return []scenario.Scenario{
		space.New(map[string]int64{
			plugin.DimMACMask:          0xEEE,
			plugin.DimCorrectClients:   20,
			plugin.DimMaliciousClients: 1,
		}),
		space.New(map[string]int64{
			plugin.DimMACMask:          0,
			plugin.DimCorrectClients:   10,
			plugin.DimMaliciousClients: 1,
			plugin.DimSlowPrimary:      1,
			plugin.DimCollude:          1,
			plugin.DimSlowIntervalMS:   400,
		}),
		space.New(map[string]int64{
			plugin.DimMACMask:          0x0F0,
			plugin.DimCorrectClients:   20,
			plugin.DimMaliciousClients: 2,
			plugin.DimReorderPct:       40,
			plugin.DimReorderDelayMS:   10,
			plugin.DimDropCall:         5,
			plugin.DimDropLen:          20,
		}),
	}
}

func assertSameRun(t *testing.T, label string, coldRes, forkRes core.Result, coldTrace, forkTrace []oracle.Event) {
	t.Helper()
	if !reflect.DeepEqual(coldRes, forkRes) {
		t.Errorf("%s: forked Result differs from cold:\ncold: %+v\nfork: %+v", label, coldRes, forkRes)
	}
	if len(coldTrace) != len(forkTrace) {
		t.Fatalf("%s: trace lengths differ: cold %d vs fork %d", label, len(coldTrace), len(forkTrace))
	}
	for i := range coldTrace {
		if coldTrace[i] != forkTrace[i] {
			t.Fatalf("%s: trace diverges at event %d: cold %v vs fork %v", label, i, coldTrace[i], forkTrace[i])
		}
	}
}

// TestForkedEqualsColdPBFT: forked == cold for the PBFT target across
// every fault tool, with each master forked repeatedly.
func TestForkedEqualsColdPBFT(t *testing.T) {
	r, err := cluster.NewRunner(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range pbftForkScenarios(t) {
		coldRes, coldRep, coldTrace := r.RunTraced(sc)
		if coldTrace == nil {
			coldTrace = []oracle.Event{}
		}
		// Fork twice from the same master: the first fork validates
		// forked==cold, the second validates snapshot reuse after restore.
		for fork := 0; fork < 2; fork++ {
			forkRes, forkRep, forkTrace := r.RunTracedFork(sc)
			if forkTrace == nil {
				forkTrace = []oracle.Event{}
			}
			label := sc.Key()
			assertSameRun(t, label, coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("%s fork %d: report differs:\ncold: %+v\nfork: %+v", label, fork, coldRep, forkRep)
			}
		}
		_ = i
	}
}

// TestForkedEqualsColdPBFTOracleVerdicts: a forked run reports the same
// injected-defect violations as a cold run (executed agreement violation
// via QuorumBug + equivocation).
func TestForkedEqualsColdPBFTOracleVerdicts(t *testing.T) {
	w := pbftForkWorkload()
	w.PBFT.QuorumBug = true
	w.Equivocate = true
	r, err := cluster.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := pbftForkSpace(t).New(map[string]int64{
		plugin.DimMACMask:          0,
		plugin.DimCorrectClients:   10,
		plugin.DimMaliciousClients: 1,
	})
	cold := r.Run(sc)
	if !cold.Violated("pbft/agreement") {
		t.Fatalf("cold run did not trip the injected agreement violation: %v", cold.Violations)
	}
	fork := r.RunFork(sc)
	if !reflect.DeepEqual(cold.Violations, fork.Violations) {
		t.Errorf("forked violations differ: cold %v vs fork %v", cold.Violations, fork.Violations)
	}
}

// TestForkedEqualsColdRaft: forked == cold for the Raft target under the
// leader-flap election storm, including trace and report equality.
func TestForkedEqualsColdRaft(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	r, err := raftsim.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []map[string]int64{
		{raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200},
		{raftsim.DimClients: 25, raftsim.DimFlapIntervalMS: 0, raftsim.DimFlapDownMS: 0},
	} {
		sc := space.New(point)
		coldRes, coldRep, coldTrace := r.RunTraced(sc)
		for fork := 0; fork < 2; fork++ {
			forkRes, forkRep, forkTrace := r.RunTracedFork(sc)
			assertSameRun(t, sc.Key(), coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("%s fork %d: report differs:\ncold: %+v\nfork: %+v", sc.Key(), fork, coldRep, forkRep)
			}
		}
	}
}

// TestForkedEqualsColdPoisonedPool: forked == cold still holds when
// forks of three populations are interleaved on one Runner and every
// chunk the shared slab pool takes back is overwritten with garbage
// (DESIGN.md §15). Each fork carves its window out of memory another
// master used last, so a stale pointer into a parked master's window, or
// an object field its call site forgot to assign, shows up as a trace or
// Result mismatch (or a fault) instead of a plausible stale value.
func TestForkedEqualsColdPoisonedPool(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)

	pr, err := cluster.NewRunner(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	pbftSCs := pbftForkScenarios(t) // populations (20,1), (10,1), (20,2)
	for round := 0; round < 3; round++ {
		for _, sc := range pbftSCs {
			coldRes, coldRep, coldTrace := pr.RunTraced(sc)
			forkRes, forkRep, forkTrace := pr.RunTracedFork(sc)
			assertSameRun(t, "pbft "+sc.Key(), coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("pbft %s round %d: report differs:\ncold: %+v\nfork: %+v", sc.Key(), round, coldRep, forkRep)
			}
		}
	}

	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	rr, err := raftsim.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, clients := range []int64{5, 10, 25} {
			sc := space.New(map[string]int64{
				raftsim.DimClients: clients, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200,
			})
			coldRes, coldRep, coldTrace := rr.RunTraced(sc)
			forkRes, forkRep, forkTrace := rr.RunTracedFork(sc)
			assertSameRun(t, "raft "+sc.Key(), coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("raft %s round %d: report differs:\ncold: %+v\nfork: %+v", sc.Key(), round, coldRep, forkRep)
			}
		}
	}
}

// TestForkedCoverageDigests: the coverage digest is part of the
// forked==cold contract — every measured run carries a non-zero digest,
// and forked executions reproduce the cold one bit for bit on both
// shipped targets. Coverage-guided exploration depends on this: the
// corpus must make the same admission decisions whether the engine
// forked the run or ran it cold.
func TestForkedCoverageDigests(t *testing.T) {
	pr, err := cluster.NewRunner(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	pbftSC := pbftForkScenarios(t)[0]
	cold := pr.Run(pbftSC)
	fork := pr.RunFork(pbftSC)
	if cold.Coverage.IsZero() {
		t.Error("pbft: cold run has no coverage digest")
	}
	if cold.Coverage != fork.Coverage {
		t.Errorf("pbft: forked coverage differs:\ncold: %+v\nfork: %+v", cold.Coverage, fork.Coverage)
	}

	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	rr, err := raftsim.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	raftSC := space.New(map[string]int64{
		raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200,
	})
	cold = rr.Run(raftSC)
	fork = rr.RunFork(raftSC)
	if cold.Coverage.IsZero() {
		t.Error("raft: cold run has no coverage digest")
	}
	if cold.Coverage != fork.Coverage {
		t.Errorf("raft: forked coverage differs:\ncold: %+v\nfork: %+v", cold.Coverage, fork.Coverage)
	}
}

// TestParallelCampaignDeterminism: a workers=4 campaign — four runs in
// flight checking masters out of the one pool while the engine's
// prefetch goroutines build the next populations behind them —
// reproduces itself bit-for-bit on both targets: two campaigns, same
// seed, identical fingerprints. (Determinism is per (seed, workers);
// different worker counts legitimately explore different proposals.) Run
// under -race this is the parallel fork path's race test.
func TestParallelCampaignDeterminism(t *testing.T) {
	raftWorkload := raftsim.DefaultWorkload()
	raftWorkload.Warmup = 300 * time.Millisecond
	raftWorkload.Measure = 800 * time.Millisecond
	targets := map[string]func() (core.Target, error){
		"pbft": func() (core.Target, error) { return cluster.NewTarget(pbftForkWorkload()) },
		"raft": func() (core.Target, error) { return raftsim.NewTarget(raftWorkload) },
	}
	for name, newTarget := range targets {
		campaign := func() string {
			target, err := newTarget()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(target, core.WithSeed(7), core.WithBudget(12), core.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			results, err := eng.RunAll(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 12 {
				t.Fatalf("%s: %d results, want 12", name, len(results))
			}
			fp, err := core.FingerprintResults(results)
			if err != nil {
				t.Fatal(err)
			}
			return fp
		}
		if first, second := campaign(), campaign(); first != second {
			t.Errorf("%s: workers=4 campaign fingerprints differ across runs: %s vs %s", name, first, second)
		}
	}
}

// TestConcurrentForksAreDeterministic: parallel workers forking the same
// and different scenarios produce exactly the serial results (run under
// -race this doubles as the fork race test).
func TestConcurrentForksAreDeterministic(t *testing.T) {
	r, err := cluster.NewRunner(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	scs := pbftForkScenarios(t)
	// Serial reference.
	want := make([]core.Result, len(scs))
	for i, sc := range scs {
		want[i] = r.RunFork(sc)
	}
	var wg sync.WaitGroup
	got := make([]core.Result, len(scs)*3)
	for rep := 0; rep < 3; rep++ {
		for i, sc := range scs {
			wg.Add(1)
			go func(slot int, sc scenario.Scenario) {
				defer wg.Done()
				got[slot] = r.RunFork(sc)
			}(rep*len(scs)+i, sc)
		}
	}
	wg.Wait()
	for rep := 0; rep < 3; rep++ {
		for i := range scs {
			if !reflect.DeepEqual(want[i], got[rep*len(scs)+i]) {
				t.Errorf("concurrent fork of %s diverged from serial result", scs[i].Key())
			}
		}
	}
}
