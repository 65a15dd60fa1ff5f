package main

import (
	"flag"
	"fmt"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/plugin"
)

// bigmac reproduces the Big MAC attack of §6 (first observed by Clement
// et al., NSDI'09): a single malicious client whose request authenticators
// are valid for the primary but corrupt for the backups poisons batches,
// stalls execution, forces view changes, and crashes replicas — collapsing
// the throughput of a deployment with hundreds of correct clients to zero.
// The campaign that discovers it is `avd -measure 2s -stepbudget 0`.
func bigmac(args []string) {
	fs := flag.NewFlagSet("avd bigmac", flag.ExitOnError)
	var (
		clients = fs.Int64("clients", 250, "correct clients in the deployment")
		mask    = fs.Uint64("mask", 0xEEE, "effective 12-bit corruption bitmask (default: all backup entries)")
		measure = fs.Duration("measure", 2*time.Second, "virtual measurement window")
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
	coord := int64(graycode.Decode(*mask))
	vals := map[string]int64{
		plugin.DimMACMask:          coord,
		plugin.DimCorrectClients:   *clients,
		plugin.DimMaliciousClients: 1,
	}
	checkGrid(space, vals)
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
