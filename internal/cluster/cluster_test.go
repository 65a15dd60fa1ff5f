package cluster

import (
	"context"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

// fastWorkload shrinks windows so integration tests stay quick.
func fastWorkload() Workload {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 1500 * time.Millisecond
	return w
}

func newRunner(t *testing.T, w Workload) *Runner {
	t.Helper()
	r, err := NewRunner(w)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

func paperSpace(t *testing.T) *scenario.Space {
	t.Helper()
	s, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRunnerValidates(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 0
	if _, err := NewRunner(w); err == nil {
		t.Error("zero measurement window accepted")
	}
	w = DefaultWorkload()
	w.MaskBits = 40
	if _, err := NewRunner(w); err == nil {
		t.Error("mask bits out of range accepted")
	}
	w = DefaultWorkload()
	w.PBFT.N = 7
	if _, err := NewRunner(w); err == nil {
		t.Error("invalid PBFT config accepted")
	}
}

func TestBaselineScalesWithClients(t *testing.T) {
	r := newRunner(t, fastWorkload())
	b10 := r.Baseline(10)
	b50 := r.Baseline(50)
	if b10 <= 0 {
		t.Fatal("baseline throughput is zero")
	}
	if b50 < 2*b10 {
		t.Errorf("throughput does not scale: 10 clients %.0f, 50 clients %.0f", b10, b50)
	}
}

func TestBaselineCached(t *testing.T) {
	// Repeated Baseline calls must agree bit-for-bit: the second is a
	// cache hit, and a (buggy) re-measurement would still be caught
	// because the simulation is deterministic per (workload, count).
	// Cache effectiveness itself is asserted by counting measurements in
	// core's BaselineCache tests, not by wall-clock timing here.
	r := newRunner(t, fastWorkload())
	first := r.Baseline(50)
	second := r.Baseline(50)
	if first != second {
		t.Errorf("baseline not deterministic: %.1f vs %.1f", first, second)
	}
	if first <= 0 {
		t.Error("baseline throughput is zero")
	}
}

// TestBaselineIgnoresStepBudget: the per-test event budget stops
// scenario-induced storms; a baseline arms no scenario, so its window
// must not be cut short by it. At the 300,000-event budget CI's
// faults-smoke uses, a 160-client baseline window used to
// come back truncated to 36,658 req/s with no row marked hung, and every
// impact scored against it was understated.
func TestBaselineIgnoresStepBudget(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond // cmd/avd's default window
	want := newRunner(t, w).Baseline(160)
	w.StepBudget = 300_000
	if got := newRunner(t, w).Baseline(160); got != want {
		t.Errorf("160-client baseline under -stepbudget 300000: %.1f req/s, without a budget %.1f", got, want)
	}
}

func TestNoAttackScenarioHasZeroImpact(t *testing.T) {
	r := newRunner(t, fastWorkload())
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          0, // mask 0 corrupts nothing
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	res := r.Run(sc)
	if res.Impact > 0.05 {
		t.Errorf("mask-0 scenario impact %.3f, want ~0", res.Impact)
	}
	if res.CrashedReplicas != 0 {
		t.Errorf("mask-0 scenario crashed %d replicas", res.CrashedReplicas)
	}
}

func TestBigMACScenarioCollapsesThroughput(t *testing.T) {
	r := newRunner(t, fastWorkload())
	// Coordinate whose Gray encoding is 0xEEE: all-backup corruption.
	coord := int64(graycode.Decode(0xEEE))
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          coord,
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	res, rep := r.RunReport(sc)
	if res.Impact < 0.5 {
		t.Errorf("Big MAC scenario impact %.3f, want > 0.5", res.Impact)
	}
	if len(rep.CrashedReplicas) == 0 {
		t.Error("Big MAC scenario crashed no replicas")
	}
	if rep.RejectedBatches == 0 {
		t.Error("no batches rejected under all-backup corruption")
	}
	if res.AvgLatency < 10*time.Millisecond {
		t.Errorf("avg latency %v suspiciously low for a collapsed system", res.AvgLatency)
	}
}

func TestImpactMonotoneInSeverity(t *testing.T) {
	// Corrupting all backups (crash) must beat corrupting one backup
	// (tolerated) which must beat corrupting nothing.
	r := newRunner(t, fastWorkload())
	space := paperSpace(t)
	impactOf := func(mask uint64) float64 {
		sc := space.New(map[string]int64{
			plugin.DimMACMask:          int64(graycode.Decode(mask)),
			plugin.DimCorrectClients:   30,
			plugin.DimMaliciousClients: 1,
		})
		return r.Run(sc).Impact
	}
	none := impactOf(0x000)
	one := impactOf(0x222) // one backup per message: tolerated
	all := impactOf(0xEEE) // all backups: poisoned batches, crash
	if !(all > one+0.3) {
		t.Errorf("severity ordering broken: all=%.3f one=%.3f", all, one)
	}
	if none > 0.05 {
		t.Errorf("no-corruption impact %.3f", none)
	}
}

func TestSlowPrimaryScenario(t *testing.T) {
	w := fastWorkload()
	w.Measure = 3 * time.Second
	r := newRunner(t, w)
	space, err := core.Space(plugin.NewClients(), &plugin.SlowPrimary{})
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
		plugin.DimSlowPrimary:      1,
		plugin.DimSlowIntervalMS:   400, // beats the 500ms scaled timer
	})
	res, rep := r.RunReport(sc)
	if res.Impact < 0.9 {
		t.Errorf("slow primary impact %.3f, want > 0.9 (starvation)", res.Impact)
	}
	if rep.ViewsInstalled != 0 {
		t.Errorf("slow primary was deposed (%d views installed); single-timer bug not exploited", rep.ViewsInstalled)
	}
	if rep.CorrectCompleted == 0 {
		t.Error("slow primary should execute ~1 request per period, got 0")
	}
}

func TestSlowPrimaryCollusionScenario(t *testing.T) {
	w := fastWorkload()
	w.Measure = 3 * time.Second
	r := newRunner(t, w)
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.SlowPrimary{})
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		plugin.DimMACMask:          0, // colluder sends valid MACs
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
		plugin.DimSlowPrimary:      1,
		plugin.DimCollude:          1,
		plugin.DimSlowIntervalMS:   400,
	})
	res, rep := r.RunReport(sc)
	// Faults arm at measurement start, so the requests already in flight
	// at that instant (at most one per correct client) may still slip
	// through; after that the colluding primary starves everyone.
	if rep.CorrectCompleted > 20 {
		t.Errorf("collusion should starve correct clients beyond the in-flight tail, got %d completions", rep.CorrectCompleted)
	}
	if rep.MaliciousCompleted == 0 {
		t.Error("colluder made no progress; timers would fire")
	}
	if res.Impact < 0.99 {
		t.Errorf("collusion impact %.3f, want ~1", res.Impact)
	}
	if rep.ViewsInstalled != 0 {
		t.Error("colluding primary was deposed despite the single-timer bug")
	}
}

func TestPerRequestTimerFixRestoresLiveness(t *testing.T) {
	// Ablation A2: same slow-primary scenario, spec-compliant timers.
	w := fastWorkload()
	w.Measure = 3 * time.Second
	w.PBFT.TimerMode = pbft.PerRequestTimer
	r := newRunner(t, w)
	space, err := core.Space(plugin.NewClients(), &plugin.SlowPrimary{})
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
		plugin.DimSlowPrimary:      1,
		plugin.DimSlowIntervalMS:   400,
	})
	res, rep := r.RunReport(sc)
	if rep.ViewsInstalled == 0 {
		t.Fatal("per-request timers never deposed the slow primary")
	}
	if res.Impact > 0.5 {
		t.Errorf("impact %.3f with the timer fix, want < 0.5 (system recovers)", res.Impact)
	}
}

func TestReorderScenarioRuns(t *testing.T) {
	r := newRunner(t, fastWorkload())
	space, err := core.Space(plugin.NewClients(), &plugin.Reorder{})
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
		plugin.DimReorderPct:       50,
		plugin.DimReorderDelayMS:   20,
	})
	res := r.Run(sc)
	if res.Throughput <= 0 {
		t.Error("reordered system made no progress at all")
	}
	// Reordering alone must not break safety; impact may be modest.
	if res.CrashedReplicas != 0 {
		t.Errorf("reordering crashed %d replicas", res.CrashedReplicas)
	}
}

func TestDropWindowScenarioRuns(t *testing.T) {
	r := newRunner(t, fastWorkload())
	space, err := core.Space(plugin.NewClients(), plugin.NewFaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		plugin.DimCorrectClients:   15,
		plugin.DimMaliciousClients: 1,
		plugin.DimDropCall:         10,
		plugin.DimDropLen:          16,
	})
	res := r.Run(sc)
	if res.Throughput <= 0 {
		t.Error("drop-window scenario made no progress")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          1234,
		plugin.DimCorrectClients:   40,
		plugin.DimMaliciousClients: 2,
	})
	r1 := newRunner(t, fastWorkload())
	r2 := newRunner(t, fastWorkload())
	a := r1.Run(sc)
	b := r2.Run(sc)
	if a.Throughput != b.Throughput || a.Impact != b.Impact || a.AvgLatency != b.AvgLatency {
		t.Errorf("nondeterministic runner: (%v,%v,%v) vs (%v,%v,%v)",
			a.Throughput, a.Impact, a.AvgLatency, b.Throughput, b.Impact, b.AvgLatency)
	}
}

func TestParallelSweepSafe(t *testing.T) {
	// Exercises the runner's baseline cache under concurrency (-race).
	r := newRunner(t, fastWorkload())
	space := paperSpace(t)
	var scs []scenario.Scenario
	for _, coord := range []int64{0, 100, 500, 900, 1500, 2500, 3000, 4000} {
		for _, clients := range []int64{10, 20} {
			scs = append(scs, space.New(map[string]int64{
				plugin.DimMACMask:          coord,
				plugin.DimCorrectClients:   clients,
				plugin.DimMaliciousClients: 1,
			}))
		}
	}
	eng, err := core.NewEngine(r, core.WithExplorer(core.NewListExplorer(scs)),
		core.WithBudget(len(scs)), core.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(scs) {
		t.Fatalf("sweep returned %d results for %d scenarios", len(results), len(scs))
	}
	for i, res := range results {
		if res.Scenario.Key() != scs[i].Key() {
			t.Fatalf("sweep result order broken at %d", i)
		}
		if res.BaselineThroughput <= 0 {
			t.Fatalf("missing baseline for %s", res.Scenario.Key())
		}
	}
}

func TestBinaryMaskAblationChangesEncoding(t *testing.T) {
	wGray := fastWorkload()
	wBin := fastWorkload()
	wBin.BinaryMask = true
	coord := int64(graycode.Decode(0xEEE)) // Gray: all backups corrupt
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          coord,
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
	})
	gray := newRunner(t, wGray).Run(sc)
	bin := newRunner(t, wBin).Run(sc)
	// Same coordinate, different effective masks -> different outcomes.
	if gray.Impact == bin.Impact && gray.Throughput == bin.Throughput {
		t.Error("binary-mask ablation produced identical results; encoding not applied")
	}
}

func TestCrashDefectDisabledKeepsReplicasAlive(t *testing.T) {
	w := fastWorkload()
	w.CrashOnBadReproposal = false
	r := newRunner(t, w)
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	res, _ := r.RunReport(sc)
	if res.CrashedReplicas != 0 {
		t.Errorf("crash model disabled but %d replicas crashed", res.CrashedReplicas)
	}
	// The attack should still hurt via view-change churn, just not kill.
	if res.Throughput == 0 {
		t.Error("without the crash defect the system should keep limping")
	}
}

func TestReportFieldsPopulated(t *testing.T) {
	r := newRunner(t, fastWorkload())
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
	})
	res, rep := r.RunReport(sc)
	if len(rep.FinalViews) != 4 {
		t.Errorf("FinalViews has %d entries, want 4", len(rep.FinalViews))
	}
	if len(rep.CrashedReplicas) != len(rep.CrashReasons) {
		t.Error("crash lists out of sync")
	}
	if res.BaselineThroughput <= 0 {
		t.Error("baseline missing from result")
	}
	if rep.P99Latency == 0 && rep.CorrectCompleted > 0 {
		t.Error("P99 latency missing despite completions")
	}
}

// TestStructuralMarkerMatchesMasterKey: scenario.Dimension.Structural is
// a promise about populationOf — over every plugin the PBFT target
// accepts, moving a structural axis changes the master key and moving any
// other axis does not. core.PlanShards relies on it to give every
// population to one shard.
func TestStructuralMarkerMatchesMasterKey(t *testing.T) {
	space, err := core.Space(
		plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.Reorder{}, plugin.NewFaultPlan(), &plugin.SlowPrimary{},
		plugin.NewCrashRestart(), plugin.NewClockSkew(4), plugin.NewOneWay(4), plugin.NewNetFaults(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := space.New(nil)
	structural := 0
	for _, d := range space.Dimensions() {
		moved := populationOf(base.With(d.Name, d.Value(1))) != populationOf(base)
		if moved != d.Structural {
			t.Errorf("%s: Structural=%v, moving it changes the master key: %v", d.Name, d.Structural, moved)
		}
		if d.Structural {
			structural++
		}
	}
	if structural != 2 {
		t.Errorf("%d structural axes, want correct_clients and malicious_clients", structural)
	}
}
