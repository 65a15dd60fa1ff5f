package core_test

// The generic Harness, exercised through the toy register target
// (toyregister_test.go) alone: everything asserted here holds for any
// system that implements the Deployment contract. What every target owes
// the harness is the contract suite, internal/core/targettest.

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
)

// TestHarnessBaselineMemoisedPerCount: one unarmed window per client
// count, however many runs, populations and Baseline calls share it.
func TestHarnessBaselineMemoisedPerCount(t *testing.T) {
	target := newRegTarget(regSpec())
	for round := 0; round < 3; round++ {
		for _, clients := range []int64{2, 6} {
			for lag := int64(0); lag <= 2; lag++ {
				res := target.Run(regScenario(t, clients, lag))
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
	scs := []scenario.Scenario{regScenario(t, 2, 1), regScenario(t, 8, 3), regScenario(t, 2, 4)}
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
		wantRes, wantRep := plain.RunReport(sc)
		gotRes, gotRep := prepared.RunReport(sc)
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
		target.Run(regScenario(t, clients, 1))
	}
	parked := func() (n int) {
		target.EachMaster(func(int64, *regDeployment) { n++ })
		return n
	}
	if n := parked(); n != len(counts) {
		t.Fatalf("%d masters parked after runs on %d populations", n, len(counts))
	}
	want := target.Run(regScenario(t, 4, 1))
	target.FlushMasters()
	if n := parked(); n != 0 {
		t.Errorf("FlushMasters left %d masters parked", n)
	}
	if got := target.Run(regScenario(t, 4, 1)); !reflect.DeepEqual(want, got) {
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
	target.Run(regScenario(t, 4, 2))
	after := target.Phases()
	if after.RunSeconds < window.Seconds() || after.ForkSeconds <= 0 || after.AnalyzeSeconds <= 0 {
		t.Errorf("attack run on a warm master: %+v", after)
	}
	if after.WarmupSeconds != 0 || after.BaselineSeconds != p.BaselineSeconds {
		t.Errorf("attack run on a warm master moved warm-up or baseline: before %+v after %+v", p, after)
	}

	target = newTarget()
	target.Run(regScenario(t, 4, 2))
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
	sc := regScenario(t, 4, 0)
	res := budgeted.Run(sc)
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
	firstRes, firstRep := newRegTarget(spec).Execute(sc, false)
	forkRes, forkRep := budgeted.Execute(sc, false)
	if !reflect.DeepEqual(firstRes, forkRes) || !reflect.DeepEqual(firstRep, forkRep) {
		t.Errorf("unarmed run on a fresh target differs from an unarmed fork:\nfresh: %+v %+v\nfork:  %+v %+v", firstRes, firstRep, forkRes, forkRep)
	}
}

// TestHarnessBaselinePanicReachesEveryTest: when the population a
// baseline forks fails to build, every test of that client count carries
// the panic in Result.Error. None scores against a baseline of 0 as if
// nothing had gone wrong.
func TestHarnessBaselinePanicReachesEveryTest(t *testing.T) {
	target := &regTarget{}
	spec := regSpec()
	spec.Name, spec.Plugins, spec.ClientsDim = "register", []core.Plugin{regClients, regLag}, dimRegClients
	// The lag is structural here, so a baseline forks a master of its own:
	// the population that sets the client count alone, lag 0.
	spec.Key = func(sc scenario.Scenario) int64 { return regKey(sc) + 1000*sc.GetOr(dimRegLagMS, 0) }
	spec.Build = func(key int64) *regDeployment {
		if key < 1000 {
			panic("the baseline population does not build")
		}
		return target.newDeployment(key % 1000)
	}
	target.Harness = core.NewHarness[int64, *regDeployment, regReport](spec)
	scs := []scenario.Scenario{regScenario(t, 4, 1), regScenario(t, 4, 2), regScenario(t, 4, 1), regScenario(t, 6, 3)}
	eng, err := core.NewEngine(target, core.WithExplorer(core.NewListExplorer(scs)), core.WithBudget(len(scs)), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(t.Context())
	if err != nil || len(results) != len(scs) {
		t.Fatalf("the campaign ran %d of %d tests: %v", len(results), len(scs), err)
	}
	for i, res := range results {
		if !strings.Contains(res.Error, "the baseline population does not build") {
			t.Errorf("test %d (%s) does not report the baseline's panic: impact %v, baseline %v, error %q",
				i, res.Scenario.Key(), res.Impact, res.BaselineThroughput, res.Error)
		}
	}
}

// TestBaselineSkipsOracle: a baseline window feeds the oracle nothing —
// it finishes with the capture's verdicts and digest — and measures the
// throughput of Execute's unarmed run bit for bit, which still folds its
// window into a coverage digest.
func TestBaselineSkipsOracle(t *testing.T) {
	target := newRegTarget(regSpec())
	d := target.newDeployment(4)
	d.Capture()
	_, captured := d.Oracle.Finish()
	baseline := target.Baseline(4)
	if got := target.lastUnarmed.Load(); got.Coverage != captured || got.Violations != nil {
		t.Errorf("the baseline window reached the oracle: coverage %+v, violations %v; the capture's coverage %+v", got.Coverage, got.Violations, captured)
	}
	res, _ := target.Execute(regScenario(t, 4, 0), false)
	if math.Float64bits(res.Throughput) != math.Float64bits(baseline) || baseline <= 0 {
		t.Errorf("unarmed Execute measured %v, the baseline %v", res.Throughput, baseline)
	}
	if res.Coverage.IsZero() || res.Coverage == captured {
		t.Errorf("unarmed Execute folded no event into its coverage %+v", res.Coverage)
	}
}

// TestHarnessMinimizeReusesMasters: minimizing a campaign's worst result
// forks the campaign's warm masters — every probe lands on a population
// the campaign ran, so none builds another.
func TestHarnessMinimizeReusesMasters(t *testing.T) {
	target := newRegTarget(regSpec())
	space := regSpace(t, regClients, regLag)
	eng, err := core.NewEngine(target, core.WithExplorer(core.NewExhaustiveExplorer(space)), core.WithBudget(int(space.Size())))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	worst := results[0]
	for _, res := range results {
		if res.Impact > worst.Impact {
			worst = res
		}
	}
	built := target.builds.Load()
	if built != int64(regClients.Dims[0].Count()) {
		t.Fatalf("the campaign built %d masters for %d populations", built, regClients.Dims[0].Count())
	}
	m, err := core.Minimize(target, worst, core.MinimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs == 0 {
		t.Fatalf("minimizing %s probed nothing", worst.Scenario.Key())
	}
	if got := target.builds.Load() - built; got != 0 {
		t.Errorf("%d probes of minimization built %d masters; want none", m.Runs, got)
	}
}
