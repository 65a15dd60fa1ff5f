// Benchmarks regenerating every figure and headline result of the
// paper's evaluation (§6), plus the ablations called out in DESIGN.md.
// Each benchmark reports domain metrics via b.ReportMetric:
//
//	impact            normalized damage of the attack (0..1)
//	tput_rps          correct-client throughput under attack
//	baseline_rps      attack-free throughput
//	lat_ms            average correct-client latency
//	crashes           replicas crashed
//	tests_to_find     tests until a <500 req/s attack was found
//
// Budgets and windows are scaled down so the full suite runs in minutes;
// the cmd/ binaries run the paper-sized versions (125-test campaigns,
// full-resolution Figure 3 sweeps).
package avd_test

import (
	"runtime"
	"testing"
	"time"

	"avd"
	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

// benchWorkload is the shared scaled-down workload.
func benchWorkload() cluster.Workload {
	w := cluster.DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = time.Second
	return w
}

func benchRunner(b *testing.B, w cluster.Workload) *cluster.Runner {
	b.Helper()
	r, err := cluster.NewRunner(w)
	if err != nil {
		b.Fatalf("NewRunner: %v", err)
	}
	return r
}

func paperSpace(b *testing.B) *scenario.Space {
	b.Helper()
	s, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func firstDark(results []core.Result) int {
	for i, r := range results {
		if r.Throughput < 500 {
			return i + 1
		}
	}
	return 0
}

// --- Figure 2: fitness-guided vs random campaigns ---------------------------

// BenchmarkFig2AVD runs a scaled AVD campaign (Figure 2, "AVD" series).
func BenchmarkFig2AVD(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	var best core.Result
	var found int
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		results := runCampaign(b, runner, ctrl, 40, 1)
		best = core.BestSoFar(results)[len(results)-1]
		found = firstDark(results)
	}
	b.ReportMetric(best.Impact, "impact")
	b.ReportMetric(best.Throughput, "tput_rps")
	b.ReportMetric(float64(found), "tests_to_find")
}

// BenchmarkFig2Random runs the random baseline (Figure 2, "Random").
func BenchmarkFig2Random(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	space := paperSpace(b)
	var best core.Result
	var found int
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, runner, core.NewRandomExplorer(space, int64(i+1)), 40, 1)
		best = core.BestSoFar(results)[len(results)-1]
		found = firstDark(results)
	}
	b.ReportMetric(best.Impact, "impact")
	b.ReportMetric(best.Throughput, "tput_rps")
	b.ReportMetric(float64(found), "tests_to_find")
}

// --- Figure 3: exhaustive subspace sweep ------------------------------------

// BenchmarkFig3Subspace sweeps a reduced Figure-3 grid and reports the
// dark-point density that gives the space its exploitable structure.
func BenchmarkFig3Subspace(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	space := paperSpace(b)
	var scs []scenario.Scenario
	for coord := int64(2816); coord < 3072; coord += 2 { // a band containing dark lines
		for _, cc := range []int64{20, 60} {
			scs = append(scs, space.New(map[string]int64{
				plugin.DimMACMask:          coord,
				plugin.DimCorrectClients:   cc,
				plugin.DimMaliciousClients: 1,
			}))
		}
	}
	var dark int
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, runner, core.NewListExplorer(scs), len(scs), runtime.NumCPU())
		dark = 0
		for _, r := range results {
			if r.Throughput < 500 {
				dark++
			}
		}
	}
	b.ReportMetric(float64(dark), "dark_points")
	b.ReportMetric(float64(len(scs)), "scenarios")
}

// --- R1/R4: the Big MAC attack ------------------------------------------------

// BenchmarkBigMACAttack measures the archetypal Big MAC scenario (mask
// 0xEEE: every backup entry corrupt, primary valid) at 30 clients.
func BenchmarkBigMACAttack(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	sc := paperSpace(b).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	var res core.Result
	for i := 0; i < b.N; i++ {
		res = runner.Run(sc)
	}
	b.ReportMetric(res.Impact, "impact")
	b.ReportMetric(res.Throughput, "tput_rps")
	b.ReportMetric(res.BaselineThroughput, "baseline_rps")
	b.ReportMetric(float64(res.CrashedReplicas), "crashes")
}

// BenchmarkSingleClientKills250Nodes is the abstract's headline: one
// malicious client versus a deployment with 250 correct clients.
func BenchmarkSingleClientKills250Nodes(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	sc := paperSpace(b).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   250,
		plugin.DimMaliciousClients: 1,
	})
	var res core.Result
	for i := 0; i < b.N; i++ {
		res = runner.Run(sc)
	}
	b.ReportMetric(res.Throughput, "tput_rps")
	b.ReportMetric(res.BaselineThroughput, "baseline_rps")
	b.ReportMetric(float64(res.CrashedReplicas), "crashes")
}

// --- R2: tests needed to find the attack (attacker power, §4) ----------------

// BenchmarkTimeToBigMACAVD reports how many tests the fitness-guided
// search needs to find a <500 req/s attack ("a few tens of iterations").
func BenchmarkTimeToBigMACAVD(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	var total, failures float64
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		results := runCampaign(b, runner, ctrl, 60, 1)
		if n := firstDark(results); n > 0 {
			total += float64(n)
		} else {
			failures++
			total += 60
		}
	}
	b.ReportMetric(total/float64(b.N), "tests_to_find")
	b.ReportMetric(failures, "not_found")
}

// BenchmarkTimeToBigMACRandom is the random-baseline counterpart.
func BenchmarkTimeToBigMACRandom(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	space := paperSpace(b)
	var total, failures float64
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, runner, core.NewRandomExplorer(space, int64(i+1)), 60, 1)
		if n := firstDark(results); n > 0 {
			total += float64(n)
		} else {
			failures++
			total += 60
		}
	}
	b.ReportMetric(total/float64(b.N), "tests_to_find")
	b.ReportMetric(failures, "not_found")
}

// --- R3: the slow-primary bug ---------------------------------------------------

// slowPrimaryScenario builds the §6 slow-primary workload with the
// paper's real 5-second timer.
func slowPrimaryRun(b *testing.B, mode pbft.TimerMode, collude bool) (core.Result, cluster.Report) {
	b.Helper()
	w := cluster.DefaultWorkload()
	w.Warmup = 2 * time.Second
	w.Measure = 30 * time.Second
	w.PBFT.ViewChangeTimeout = 5 * time.Second
	w.PBFT.NewViewTimeout = 2500 * time.Millisecond
	w.PBFT.TimerMode = mode
	w.Correct.Retry = 500 * time.Millisecond
	w.Correct.RetryCap = 2 * time.Second
	w.Malicious.Retry = 500 * time.Millisecond
	w.Malicious.RetryCap = 2 * time.Second
	runner := benchRunner(b, w)
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.SlowPrimary{})
	if err != nil {
		b.Fatal(err)
	}
	vals := map[string]int64{
		plugin.DimCorrectClients:   20,
		plugin.DimMaliciousClients: 1,
		plugin.DimSlowPrimary:      1,
		plugin.DimSlowIntervalMS:   4500,
	}
	if collude {
		vals[plugin.DimCollude] = 1
	}
	return runner.RunReport(space.New(vals))
}

// BenchmarkSlowPrimary reproduces the 0.2 req/s result.
func BenchmarkSlowPrimary(b *testing.B) {
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, _ = slowPrimaryRun(b, pbft.SingleTimer, false)
	}
	b.ReportMetric(res.Throughput, "tput_rps") // paper: 0.2
	b.ReportMetric(res.Impact, "impact")
}

// BenchmarkSlowPrimaryCollusion reproduces the 0 useful req/s result.
func BenchmarkSlowPrimaryCollusion(b *testing.B) {
	var res core.Result
	for i := 0; i < b.N; i++ {
		res, _ = slowPrimaryRun(b, pbft.SingleTimer, true)
	}
	b.ReportMetric(res.Throughput, "tput_rps") // paper: 0
	b.ReportMetric(res.Impact, "impact")
}

// --- Ablations ---------------------------------------------------------------------

// BenchmarkAblationGrayVsBinary (A1) compares mutation locality under
// Gray vs plain binary mask encoding: the fraction of one-step mutations
// that change exactly one effective mask bit.
func BenchmarkAblationGrayVsBinary(b *testing.B) {
	var grayLocal, binLocal float64
	for i := 0; i < b.N; i++ {
		grayLocal, binLocal = 0, 0
		for coord := int64(0); coord < 4095; coord++ {
			g := plugin.NewMACCorrupt()
			if graycode.HammingDistance(g.Mask(coord), g.Mask(coord+1)) == 1 {
				grayLocal++
			}
			bin := &plugin.MACCorrupt{Bits: 12, Binary: true}
			if graycode.HammingDistance(bin.Mask(coord), bin.Mask(coord+1)) == 1 {
				binLocal++
			}
		}
	}
	b.ReportMetric(grayLocal/4095, "gray_locality")
	b.ReportMetric(binLocal/4095, "binary_locality")
}

// BenchmarkAblationTimerFix (A2) quantifies the slow-primary bug fix:
// throughput with per-request timers over throughput with the single
// timer (higher is better; the paper's fix ratio is ~20000x).
func BenchmarkAblationTimerFix(b *testing.B) {
	var buggy, fixed core.Result
	for i := 0; i < b.N; i++ {
		buggy, _ = slowPrimaryRun(b, pbft.SingleTimer, false)
		fixed, _ = slowPrimaryRun(b, pbft.PerRequestTimer, false)
	}
	b.ReportMetric(buggy.Throughput, "buggy_rps")
	b.ReportMetric(fixed.Throughput, "fixed_rps")
}

// BenchmarkAblationPluginFitness (A3) toggles the fitness-gain plugin
// weighting of Algorithm 1 line 2 and reports the best impact found.
func BenchmarkAblationPluginFitness(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.Reorder{}}
	var withFit, without float64
	for i := 0; i < b.N; i++ {
		c1, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		r1 := runCampaign(b, runner, c1, 30, 1)
		withFit = core.BestSoFar(r1)[len(r1)-1].Impact
		c2, err := core.NewController(core.ControllerConfig{
			Seed: int64(i + 1), SeedTests: 8, DisablePluginFitness: true,
		}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		r2 := runCampaign(b, runner, c2, 30, 1)
		without = core.BestSoFar(r2)[len(r2)-1].Impact
	}
	b.ReportMetric(withFit, "impact_weighted")
	b.ReportMetric(without, "impact_uniform")
}

// BenchmarkAblationBatching (A4) compares baseline throughput with and
// without request batching at 50 clients.
func BenchmarkAblationBatching(b *testing.B) {
	var batched, unbatched float64
	for i := 0; i < b.N; i++ {
		w := benchWorkload()
		batched = benchRunner(b, w).Baseline(50)
		w2 := benchWorkload()
		w2.PBFT.BatchSize = 1
		unbatched = benchRunner(b, w2).Baseline(50)
	}
	b.ReportMetric(batched, "batched_rps")
	b.ReportMetric(unbatched, "unbatched_rps")
}

// BenchmarkAblationCrashModel compares the Big MAC scenario with and
// without the modeled view-change crash defect.
func BenchmarkAblationCrashModel(b *testing.B) {
	sc := paperSpace(b).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	var withCrash, without core.Result
	for i := 0; i < b.N; i++ {
		withCrash = benchRunner(b, benchWorkload()).Run(sc)
		w := benchWorkload()
		w.CrashOnBadReproposal = false
		without = benchRunner(b, w).Run(sc)
	}
	b.ReportMetric(withCrash.Throughput, "crash_rps")
	b.ReportMetric(without.Throughput, "nocrash_rps")
}

// BenchmarkAblationGeneticVsHillClimb (A6) compares the paper's
// hill-climbing controller with the genetic-algorithm alternative it
// cites (§3), on equal budgets.
func BenchmarkAblationGeneticVsHillClimb(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	var hill, genetic float64
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		r1 := runCampaign(b, runner, ctrl, 40, 1)
		hill = core.BestSoFar(r1)[len(r1)-1].Impact
		ga, err := core.NewGenetic(core.GeneticConfig{Seed: int64(i + 1), Population: 10}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		r2 := runCampaign(b, runner, ga, 40, 1)
		genetic = core.BestSoFar(r2)[len(r2)-1].Impact
	}
	b.ReportMetric(hill, "impact_hillclimb")
	b.ReportMetric(genetic, "impact_genetic")
}

// --- Substrate scale ---------------------------------------------------------------

// BenchmarkPBFTBaseline measures attack-free PBFT throughput at the
// paper's deployment sizes (the y-axis scale of Figure 2).
func BenchmarkPBFTBaseline(b *testing.B) {
	for _, clients := range []int64{10, 50, 100, 250} {
		clients := clients
		b.Run(scenarioName(clients), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				tput = benchRunner(b, benchWorkload()).Baseline(clients)
			}
			b.ReportMetric(tput, "tput_rps")
		})
	}
}

func scenarioName(clients int64) string {
	switch clients {
	case 10:
		return "clients10"
	case 50:
		return "clients50"
	case 100:
		return "clients100"
	default:
		return "clients250"
	}
}

// BenchmarkPublicAPICampaign exercises the facade end to end, as a
// downstream user would (also keeps the avd package itself benchmarked).
func BenchmarkPublicAPICampaign(b *testing.B) {
	w := avd.DefaultWorkload()
	w.Measure = 500 * time.Millisecond
	runner, err := avd.NewPBFTRunner(w)
	if err != nil {
		b.Fatal(err)
	}
	var best avd.Result
	for i := 0; i < b.N; i++ {
		ctrl, err := avd.NewController(avd.ControllerConfig{Seed: int64(i + 1), SeedTests: 5},
			avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
		if err != nil {
			b.Fatal(err)
		}
		results := runCampaign(b, runner, ctrl, 15, 1)
		best = avd.BestSoFar(results)[len(results)-1]
	}
	b.ReportMetric(best.Impact, "impact")
}
