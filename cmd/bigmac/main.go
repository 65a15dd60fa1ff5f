// Command bigmac reproduces the Big MAC attack of §6 (first observed by
// Clement et al., NSDI'09): a single malicious client whose request
// authenticators are valid for the primary but corrupt for the backups
// poisons batches, stalls execution, forces view changes, and crashes
// replicas — collapsing the throughput of a deployment with hundreds of
// correct clients to zero.
//
// With -discover, the tool instead runs an AVD campaign and reports how
// many tests the fitness-guided exploration needed to find an attack of
// this class (the paper: "a few tens of iterations").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/trace"
)

func main() {
	var (
		clients  = flag.Int64("clients", 250, "correct clients in the deployment")
		mask     = flag.Uint64("mask", 0xEEE, "effective 12-bit corruption bitmask (default: all backup entries)")
		measure  = flag.Duration("measure", 2*time.Second, "virtual measurement window")
		discover = flag.Bool("discover", false, "run an AVD campaign to discover the attack instead")
		budget   = flag.Int("budget", 125, "campaign budget with -discover")
		seed     = flag.Int64("seed", 1, "seed with -discover")
		workers  = flag.Int("workers", 1, "parallel test-execution workers with -discover (results are reproducible per seed+workers pair)")
	)
	flag.Parse()

	w := cluster.DefaultWorkload()
	w.Measure = *measure
	target, err := cluster.NewTarget(w)
	if err != nil {
		fatal(err)
	}
	if *discover {
		runDiscovery(target, *budget, *seed, *workers)
		return
	}

	space, err := core.Space(target.Plugins()...)
	if err != nil {
		fatal(err)
	}
	coord := int64(graycode.Decode(*mask))
	vals := map[string]int64{
		plugin.DimMACMask:          coord,
		plugin.DimCorrectClients:   *clients,
		plugin.DimMaliciousClients: 1,
	}
	if err := checkGrid(space, vals); err != nil {
		fatal(err)
	}
	sc := space.New(vals)
	fmt.Printf("deployment: 4 replicas (f=1), %d correct clients, 1 malicious client\n", *clients)
	fmt.Printf("attack: corrupt bit mask %#03x (coordinate %d in Gray code)\n", *mask, coord)
	fmt.Printf("         bit n corrupts the (n mod 12)-th generateMAC call of the malicious client\n\n")

	baseline := target.Baseline(*clients)
	res, rep := target.RunReport(sc)
	fmt.Printf("baseline throughput (no attack): %9.0f req/s\n", baseline)
	fmt.Printf("throughput under attack:         %9.0f req/s\n", res.Throughput)
	fmt.Printf("impact: %.3f   avg latency: %v   p99: %v\n",
		res.Impact, res.AvgLatency.Round(time.Millisecond), rep.P99Latency.Round(time.Millisecond))
	fmt.Printf("poisoned batches rejected: %d   retransmissions: %d   state transfers: %d\n",
		rep.RejectedBatches, rep.Retransmissions, rep.StateTransfers)
	fmt.Printf("view changes installed: %d   timer-initiated view changes: %d\n",
		rep.ViewsInstalled, rep.TimerViewChanges)
	if len(rep.CrashedReplicas) > 0 {
		fmt.Printf("crashed replicas: %v\n", rep.CrashedReplicas)
		for i, id := range rep.CrashedReplicas {
			fmt.Printf("  replica %d: %s\n", id, rep.CrashReasons[i])
		}
	} else {
		fmt.Println("crashed replicas: none")
	}
	if res.Throughput < 500 {
		fmt.Println("\nresult: the deployment is DOWN (dark point by the paper's Figure-3 criterion)")
	}
}

func runDiscovery(target *cluster.Target, budget int, seed int64, workers int) {
	eng, err := core.NewEngine(target,
		core.WithSeed(seed), core.WithBudget(budget), core.WithWorkers(workers))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("running AVD discovery campaign (budget %d, seed %d, %d workers)...\n", budget, seed, workers)
	results, err := eng.RunAll(context.Background())
	if err != nil {
		fatal(err)
	}
	firstDark := 0
	for i, r := range results {
		if r.Throughput < 500 {
			firstDark = i + 1
			break
		}
	}
	trace.SummarizeCampaign(os.Stdout, "AVD", results)
	if firstDark > 0 {
		r := results[firstDark-1]
		fmt.Printf("first Big MAC-class attack (throughput < 500 req/s) found at test %d:\n", firstDark)
		fmt.Printf("  %s (%s)\n", r.Scenario.Key(), trace.FormatScenarioMask(r, true))
		fmt.Printf("  throughput %.0f req/s, impact %.3f, %d crashed replicas\n",
			r.Throughput, r.Impact, r.CrashedReplicas)
	} else {
		fmt.Printf("no sub-500 req/s attack found within %d tests; try another seed\n", budget)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bigmac:", err)
	os.Exit(1)
}

// checkGrid refuses a value the space would clamp onto its grid, which
// would silently run a scenario other than the one asked for.
func checkGrid(space *scenario.Space, vals map[string]int64) error {
	for _, d := range space.Dimensions() {
		if v, ok := vals[d.Name]; ok && d.Clamp(v) != v {
			return fmt.Errorf("%s must be on %d..%d step %d, not %d", d.Name, d.Min, d.Max, d.Step, v)
		}
	}
	return nil
}
