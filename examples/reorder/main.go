// Reorder: use the message-reordering testing tool of §5. AVD searches
// over the reordering intensity dimensions (fraction of traffic delayed,
// delay bound) composed with the deployment shape, and reports how much
// damage adversarial reordering alone can do to PBFT — and how the
// mutateDistance maps to the edit distance between delivery streams.
//
//	go run ./examples/reorder
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"avd"
)

func main() {
	workload := avd.DefaultWorkload()
	workload.Measure = 1500 * time.Millisecond
	// This target trades the MAC-corruption plugin for the reordering
	// tool: the attack surface is a choice, not a constant.
	target, err := avd.NewPBFTTarget(workload, avd.NewClientsPlugin(), avd.NewReorderPlugin())
	if err != nil {
		log.Fatal(err)
	}
	runner := target
	space, err := avd.SpaceOf(target.Plugins()...)
	if err != nil {
		log.Fatal(err)
	}

	// First, a manual sweep of the reordering intensity, to see the
	// tool's dimensions in isolation.
	fmt.Println("manual sweep: adversarial reordering of replica traffic (30 clients)")
	fmt.Printf("%-28s %12s %12s %10s\n", "reorder config", "tput req/s", "avg latency", "impact")
	for _, cfg := range []struct{ pct, delayMS int64 }{
		{0, 0}, {25, 10}, {50, 20}, {75, 35}, {100, 50},
	} {
		sc := space.New(map[string]int64{
			avd.DimCorrectClients:   30,
			avd.DimMaliciousClients: 1,
			avd.DimReorderPct:       cfg.pct,
			avd.DimReorderDelayMS:   cfg.delayMS,
		})
		res := runner.Run(sc)
		fmt.Printf("%3d%% delayed up to %2dms      %12.0f %12v %10.3f\n",
			cfg.pct, cfg.delayMS, res.Throughput, res.AvgLatency.Round(time.Millisecond), res.Impact)
	}

	// Then let the engine's default controller search the composed space.
	eng, err := avd.NewEngine(target, avd.WithSeed(3), avd.WithBudget(40))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nguided search over the reordering hyperspace (40 tests)...")
	results, err := eng.RunAll(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	best := avd.BestSoFar(results)[len(results)-1]
	fmt.Printf("strongest reordering attack: impact %.3f at %s\n", best.Impact, best.Scenario)

	fmt.Println("\nPBFT is safe under reordering (asynchronous design), but not live-and-fast:")
	fmt.Println("in-order execution turns adversarial delays into head-of-line blocking for")
	fmt.Println("every client. Note the attacker position differs from the MAC attacks: this")
	fmt.Println("tool models control over the network, a higher rung on the paper's power")
	fmt.Println("hierarchy (§4) than a single compromised client.")
}
