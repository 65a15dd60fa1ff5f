package core

// The generic Harness, exercised through the toy register target
// (toyregister_test.go) alone: everything asserted here holds for any
// system that implements the Deployment contract.

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"avd/internal/scenario"
	"avd/internal/slab"
)

func regSpec() HarnessSpec[int64, *regDeployment] {
	return HarnessSpec[int64, *regDeployment]{Measure: 200 * time.Millisecond, LatencyRef: 50 * time.Millisecond}
}

func regScenario(t *testing.T, target *regTarget, clients, lagMS int64) scenario.Scenario {
	t.Helper()
	space, err := Space(target.Plugins()...)
	if err != nil {
		t.Fatal(err)
	}
	return space.New(map[string]int64{dimRegClients: clients, dimRegLagMS: lagMS})
}

// TestHarnessColdEqualsEveryFork: a cold run, the first fork of a fresh
// master and the tenth fork of a master that ran other scenarios in
// between are the same run — Result, report and oracle-event trace.
func TestHarnessColdEqualsEveryFork(t *testing.T) {
	target := newRegTarget(regSpec())
	sc := regScenario(t, target, 4, 2)
	other := regScenario(t, target, 4, 4)
	coldRes, coldRep, coldTrace := target.RunTraced(sc)
	if coldRes.Impact <= 0 || coldRep.Completed == 0 || len(coldTrace) == 0 {
		t.Fatalf("toy attack measured nothing: %+v %+v, %d events", coldRes, coldRep, len(coldTrace))
	}
	if coldRep.PrimaryVersion < coldRep.BackupVersion || len(coldRes.Violations) != 0 {
		t.Fatalf("toy register broke its own protocol: %+v %+v", coldRes, coldRep)
	}
	for fork := 1; fork <= 10; fork++ {
		res, rep, trace := target.RunTracedFork(sc)
		if !reflect.DeepEqual(coldRes, res) || !reflect.DeepEqual(coldRep, rep) || !reflect.DeepEqual(coldTrace, trace) {
			t.Fatalf("fork %d differs from the cold run:\ncold: %+v %+v\nfork: %+v %+v", fork, coldRes, coldRep, res, rep)
		}
		target.RunFork(other)
	}
	if got := target.RunForkWorker(sc, 3); !reflect.DeepEqual(coldRes, got) {
		t.Errorf("RunForkWorker differs from RunFork: %+v", got)
	}
}

// TestHarnessWindowCeilingCostsOneTest: a deployment whose window leaks
// past slab.WindowCeiling is stopped and reported like an exhausted step
// budget — Result.Hung plus an Error naming the ceiling — on the same
// event cold and forked (a restore carves nothing, so both windows lease
// identically); park hands every lease back, and the master's next fork
// is healthy. No shipped scenario reaches the ceiling any more, so the
// toy leaks on purpose.
func TestHarnessWindowCeilingCostsOneTest(t *testing.T) {
	target := newRegTarget(regSpec())
	sc := regScenario(t, target, 4, 1)
	healthy := target.RunFork(sc)
	if healthy.Errored() {
		t.Fatalf("toy run degraded before it leaked: %+v", healthy)
	}
	target.leak = slab.WindowCeiling / 16
	cold := target.Run(sc)
	if !cold.Hung || !strings.Contains(cold.Error, "window-memory ceiling") {
		t.Fatalf("leaking window was not cut at the ceiling: %+v", cold)
	}
	if fork := target.RunFork(sc); !reflect.DeepEqual(cold, fork) {
		t.Errorf("ceiling verdict differs between cold and fork:\ncold: %+v\nfork: %+v", cold, fork)
	}
	if got := target.pool.Leased(); got != 0 {
		t.Errorf("%d chunks still on lease after the hung tests parked", got)
	}
	target.leak = 0
	if again := target.RunFork(sc); !reflect.DeepEqual(healthy, again) {
		t.Errorf("the ceiling leaked into the next fork:\nbefore: %+v\nafter:  %+v", healthy, again)
	}
}

// TestHarnessBaselineMemoisedPerCount: one unarmed window per client
// count, however many runs, populations and Baseline calls share it.
func TestHarnessBaselineMemoisedPerCount(t *testing.T) {
	target := newRegTarget(regSpec())
	for round := 0; round < 3; round++ {
		for _, clients := range []int64{2, 6} {
			for lag := int64(0); lag <= 2; lag++ {
				res := target.RunFork(regScenario(t, target, clients, lag))
				if res.BaselineThroughput != target.Baseline(clients) || res.BaselineThroughput <= 0 {
					t.Fatalf("clients=%d: result carries baseline %v, harness says %v", clients, res.BaselineThroughput, target.Baseline(clients))
				}
				if lag == 0 && res.Throughput != res.BaselineThroughput {
					t.Fatalf("clients=%d: a fault-free attack run measured %v, its baseline %v", clients, res.Throughput, res.BaselineThroughput)
				}
			}
		}
	}
	if got := target.baselineWindows.Load(); got != 2 {
		t.Errorf("%d baseline windows ran for 2 client counts", got)
	}
	if got := target.builds.Load(); got != 2 {
		t.Errorf("%d masters built for 2 populations on a serial caller", got)
	}
}

// TestHarnessPrepareIdempotentAndNeutral: Prepare builds each population
// once however often it is called, and a prepared harness returns what an
// unprepared one does.
func TestHarnessPrepareIdempotentAndNeutral(t *testing.T) {
	prepared, plain := newRegTarget(regSpec()), newRegTarget(regSpec())
	scs := []scenario.Scenario{regScenario(t, plain, 2, 1), regScenario(t, plain, 8, 3), regScenario(t, plain, 2, 4)}
	for round := 0; round < 3; round++ {
		for _, sc := range scs {
			prepared.Prepare(sc)
		}
	}
	if got := prepared.builds.Load(); got != 2 {
		t.Errorf("Prepare built %d masters for 2 populations", got)
	}
	if got := prepared.baselineWindows.Load(); got != 2 {
		t.Errorf("Prepare measured %d baselines for 2 client counts", got)
	}
	for _, sc := range scs {
		wantRes, wantRep := plain.RunForkReport(sc)
		gotRes, gotRep := prepared.RunForkReport(sc)
		if !reflect.DeepEqual(wantRes, gotRes) || !reflect.DeepEqual(wantRep, gotRep) {
			t.Errorf("%s: prepared harness differs:\nplain:    %+v %+v\nprepared: %+v %+v", sc.Key(), wantRes, wantRep, gotRes, gotRep)
		}
	}
	if got := prepared.builds.Load(); got != 2 {
		t.Errorf("runs after Prepare rebuilt masters: %d builds", got)
	}
}

// TestHarnessFlushMasters: FlushMasters leaves no parked master under any
// key, and the next run transparently rebuilds.
func TestHarnessFlushMasters(t *testing.T) {
	target := newRegTarget(regSpec())
	counts := []int64{2, 4, 6, 8}
	for _, clients := range counts {
		target.RunFork(regScenario(t, target, clients, 1))
	}
	parked := 0
	target.EachMaster(func(int64, *regDeployment) { parked++ })
	if parked != len(counts) {
		t.Fatalf("%d masters parked after runs on %d populations", parked, len(counts))
	}
	want := target.RunFork(regScenario(t, target, 4, 1))
	target.FlushMasters()
	for _, clients := range counts {
		if n := target.masters.FreeLen(clients); n != 0 {
			t.Errorf("FlushMasters left %d masters under key %d", n, clients)
		}
	}
	if got := target.RunFork(regScenario(t, target, 4, 1)); !reflect.DeepEqual(want, got) {
		t.Errorf("run after flush differs: %+v vs %+v", got, want)
	}
	if got := target.builds.Load(); got != int64(len(counts))+1 {
		t.Errorf("%d builds, want one per population plus one rebuild", got)
	}
}

// TestHarnessPhaseBuckets: a master an attack run builds is warm-up time,
// its window run time; a master a baseline builds, and the baseline's
// window, are baseline time and nothing else.
func TestHarnessPhaseBuckets(t *testing.T) {
	const build, window = 100 * time.Millisecond, 10 * time.Millisecond
	newTarget := func() *regTarget {
		target := newRegTarget(regSpec())
		target.buildDelay, target.measureDelay = build, window
		return target
	}

	target := newTarget()
	target.Baseline(4)
	p := target.Phases()
	if p.BaselineSeconds < (build + window).Seconds() {
		t.Errorf("baseline that built its master accrued %.3fs, want >= %.3fs", p.BaselineSeconds, (build + window).Seconds())
	}
	if p.WarmupSeconds != 0 || p.ForkSeconds != 0 || p.RunSeconds != 0 || p.AnalyzeSeconds != 0 {
		t.Errorf("baseline leaked into other phases: %+v", p)
	}
	target.RunFork(regScenario(t, target, 4, 2))
	after := target.Phases()
	if after.RunSeconds < window.Seconds() || after.ForkSeconds <= 0 || after.AnalyzeSeconds <= 0 {
		t.Errorf("attack run on a warm master: %+v", after)
	}
	if after.WarmupSeconds != 0 || after.BaselineSeconds != p.BaselineSeconds {
		t.Errorf("attack run on a warm master moved warm-up or baseline: before %+v after %+v", p, after)
	}

	target = newTarget()
	target.RunFork(regScenario(t, target, 4, 2))
	p = target.Phases()
	if p.WarmupSeconds < build.Seconds() || p.WarmupSeconds >= (build+window).Seconds() {
		t.Errorf("attack run that built its master: warm-up %.3fs, want [%.3f, %.3f)", p.WarmupSeconds, build.Seconds(), (build + window).Seconds())
	}
	if p.RunSeconds < window.Seconds() || p.RunSeconds >= build.Seconds() {
		t.Errorf("run phase %.3fs, want [%.3f, %.3f)", p.RunSeconds, window.Seconds(), build.Seconds())
	}
	if p.BaselineSeconds < window.Seconds() || p.BaselineSeconds >= build.Seconds() {
		t.Errorf("baseline on the attack run's master: %.3fs, want [%.3f, %.3f)", p.BaselineSeconds, window.Seconds(), build.Seconds())
	}
}

// TestHarnessBaselineWindow: attack runs get Measure and the step budget;
// baselines get Measure and never a budget — a budget small enough to cut
// every attack window short leaves the baseline what it is without one.
func TestHarnessBaselineWindow(t *testing.T) {
	spec := regSpec()
	unbudgeted := newRegTarget(spec)
	spec.StepBudget = 50
	budgeted := newRegTarget(spec)
	sc := regScenario(t, budgeted, 4, 0)
	res := budgeted.RunFork(sc)
	if !res.Hung || res.Error == "" {
		t.Fatalf("50-event budget did not cut the attack window: %+v", res)
	}
	if got := budgeted.lastAttackBudget.Load(); got != 50 {
		t.Errorf("attack window ran under budget %d, want 50", got)
	}
	if got, want := res.BaselineThroughput, unbudgeted.Baseline(4); got != want || got <= 0 {
		t.Errorf("baseline under a step budget %v, without %v", got, want)
	}
	if got := time.Duration(budgeted.lastBaselineWindow.Load()); got != spec.Measure {
		t.Errorf("baseline window %v, want Measure %v", got, spec.Measure)
	}
	coldRes, coldRep := budgeted.Execute(sc, false, false)
	forkRes, forkRep := budgeted.Execute(sc, false, true)
	if !reflect.DeepEqual(coldRes, forkRes) || !reflect.DeepEqual(coldRep, forkRep) {
		t.Errorf("unarmed cold run differs from unarmed fork:\ncold: %+v %+v\nfork: %+v %+v", coldRes, coldRep, forkRes, forkRep)
	}
}

// TestHarnessConcurrentForks: eight callers forking the same and
// different populations at once get exactly the serial results (under
// -race this is the harness's race test).
func TestHarnessConcurrentForks(t *testing.T) {
	target := newRegTarget(regSpec())
	scs := []scenario.Scenario{
		regScenario(t, target, 2, 1), regScenario(t, target, 2, 3),
		regScenario(t, target, 6, 0), regScenario(t, target, 8, 4),
	}
	want := make([]Result, len(scs))
	serial := newRegTarget(regSpec())
	for i, sc := range scs {
		want[i] = serial.RunFork(sc)
	}
	const callers = 8
	got := make([][]Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range scs {
					target.Prepare(scs[(i+c)%len(scs)])
					got[c] = append(got[c], target.RunFork(scs[(i+c)%len(scs)]))
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range got {
		for n, res := range got[c] {
			if i := (n%len(scs) + c) % len(scs); !reflect.DeepEqual(want[i], res) {
				t.Fatalf("caller %d run %d of %s diverged from the serial result:\nwant %+v\ngot  %+v", c, n, scs[i].Key(), want[i], res)
			}
		}
	}
}
