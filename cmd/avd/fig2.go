package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/trace"
)

// fig2 regenerates Figure 2 of the paper: the evolution of the average
// latency and average throughput of the PBFT system as induced by the
// attacks generated by AVD's fitness-guided exploration versus random
// exploration, over a budget of executed tests (125 in the paper).
//
// Output: two terminal charts (latency and throughput per executed test),
// a summary, and optionally a CSV with every executed test.
func fig2(args []string) {
	fs := flag.NewFlagSet("avd fig2", flag.ExitOnError)
	var (
		tests   = fs.Int("tests", 125, "executed tests per strategy")
		seed    = fs.Int64("seed", 1, "random seed for both strategies")
		measure = fs.Duration("measure", 1500*time.Millisecond, "virtual measurement window per test")
		csvPath = fs.String("csv", "", "write per-test results to this CSV file")
		workers = fs.Int("workers", 1, "feedback batch: tests proposed before their results are fed back; results are a function of seed and this value; up to GOMAXPROCS tests run at once (1 = the serial reference)")
	)
	parseFlags(fs, args)

	target, err := cluster.NewTarget(pbftWorkload(*measure))
	if err != nil {
		fatal(err)
	}
	space, err := core.Space(target.Plugins()...)
	if err != nil {
		fatal(err)
	}
	// The output file opens before the campaigns spend their budget, so a
	// path that cannot be written fails at once.
	csvFile := createOutput(*csvPath)
	fmt.Printf("hyperspace: %d scenarios (4096 masks x 25 client counts x 2 malicious)\n", space.Size())
	fmt.Printf("budget: %d tests per strategy, measurement window %v (virtual), feedback batch %d\n\n", *tests, *measure, *workers)

	// One engine per strategy, both over the same target so the second
	// campaign reuses the first's cached baselines.
	run := func(label string, ex core.Explorer) []core.Result {
		eng, err := core.NewEngine(target,
			core.WithExplorer(ex), core.WithBudget(*tests), core.WithWorkers(*workers),
			core.WithObserver(progress(label)))
		if err != nil {
			fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			fatal(err)
		}
		return results
	}

	start := time.Now()
	ctrl, err := core.NewController(core.ControllerConfig{Seed: *seed, SeedTests: 10}, target.Plugins()...)
	if err != nil {
		fatal(err)
	}
	avdResults := run("AVD", ctrl)
	fmt.Println()
	rndResults := run("RND", core.NewRandomExplorer(space, *seed))
	fmt.Printf("\ncampaigns done in %v (wall)\n\n", time.Since(start).Round(time.Second))

	names := []string{"AVD (fitness-guided)", "random"}
	trace.RenderSeries(os.Stdout, "Figure 2 (top): avg latency of requests from correct clients, per executed test",
		"avg latency, seconds", names,
		[][]float64{trace.Series(avdResults, trace.LatencySeconds), trace.Series(rndResults, trace.LatencySeconds)}, 12)
	fmt.Println()
	trace.RenderSeries(os.Stdout, "Figure 2 (bottom): avg throughput of PBFT, per executed test",
		"throughput, req/s", names,
		[][]float64{trace.Series(avdResults, trace.Throughput), trace.Series(rndResults, trace.Throughput)}, 12)
	fmt.Println()

	trace.SummarizeCampaign(os.Stdout, "AVD", avdResults)
	trace.SummarizeCampaign(os.Stdout, "random", rndResults)
	fmt.Printf("\nconcentration (mean over the 2nd half of each campaign):\n")
	mt, ml := meanTail(avdResults)
	fmt.Printf("  AVD:    throughput %8.0f req/s, latency %v\n", mt, ml.Round(time.Millisecond))
	mt, ml = meanTail(rndResults)
	fmt.Printf("  random: throughput %8.0f req/s, latency %v\n", mt, ml.Round(time.Millisecond))

	if csvFile != nil {
		err := trace.WriteCampaignCSV(csvFile, "avd", avdResults)
		if err == nil {
			// The random campaign follows without a second header.
			err = trace.WriteCampaignRows(csvFile, "random", rndResults)
		}
		if err = errors.Join(err, csvFile.Close()); err != nil {
			fatal(fmt.Errorf("csv: %w", err))
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}

func progress(label string) core.CampaignObserver {
	return func(i int, res core.Result) {
		if i%25 == 0 {
			fmt.Printf("%s %3d tests executed (latest impact %.3f)\n", label, i, res.Impact)
		}
	}
}

func meanTail(results []core.Result) (float64, time.Duration) {
	tail := results[len(results)/2:]
	if len(tail) == 0 {
		return 0, 0
	}
	var t float64
	var l time.Duration
	for _, r := range tail {
		t += r.Throughput
		l += r.AvgLatency
	}
	return t / float64(len(tail)), l / time.Duration(len(tail))
}
