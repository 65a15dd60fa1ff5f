package main

import (
	"flag"
	"fmt"
	"maps"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/pbft"
	"avd/internal/plugin"
)

// slowprimary reproduces the previously undocumented PBFT bug that AVD
// discovered (§6): the implementation keeps a single view-change timer per
// replica instead of one per request, so a malicious primary that executes
// one client request per timer period (5 seconds by default) is never
// suspected — diminishing PBFT throughput to 0.2 requests/second. If a
// malicious client cooperates with the primary, the primary can ignore
// correct clients entirely, and the useful throughput drops to 0.
//
// The experiment uses the paper's real 5-second timer (the system is
// nearly idle, so simulation cost is negligible) and compares the buggy
// single-timer implementation with the spec-compliant per-request timers
// that fix the bug.
func slowprimary(args []string) {
	fs := flag.NewFlagSet("avd slowprimary", flag.ExitOnError)
	var (
		clients = fs.Int64("clients", 20, "correct clients in the deployment")
		window  = fs.Duration("measure", 60*time.Second, "virtual measurement window")
		timer   = fs.Duration("timer", 5*time.Second, "view-change timer period (paper default 5s)")
	)
	parseFlags(fs, args)

	type row struct {
		name    string
		mode    pbft.TimerMode
		slow    bool
		collude bool
	}
	rows := []row{
		{"healthy primary", pbft.SingleTimer, false, false},
		{"slow primary, single timer (the bug)", pbft.SingleTimer, true, false},
		{"slow primary + colluding client", pbft.SingleTimer, true, true},
		{"slow primary, per-request timers (fix)", pbft.PerRequestTimer, true, false},
		{"slow primary + colluder, per-request timers", pbft.PerRequestTimer, true, true},
	}

	space, err := core.Space(append(cluster.DefaultPlugins(), plugin.NewSlowPrimary())...)
	if err != nil {
		fatal(err)
	}
	base := map[string]int64{
		plugin.DimMACMask:          0,
		plugin.DimCorrectClients:   *clients,
		plugin.DimMaliciousClients: 1,
		plugin.DimSlowIntervalMS:   int64((*timer) * 9 / 10 / time.Millisecond),
	}
	checkGrid(space, base)

	fmt.Printf("deployment: 4 replicas (f=1), %d correct clients; view-change timer %v; window %v\n",
		*clients, *timer, *window)
	fmt.Printf("slow primary executes one request per %v (0.9 x timer period)\n\n", (*timer)*9/10)
	fmt.Printf("%-46s %14s %14s %8s %s\n", "configuration", "useful req/s", "avg latency", "views", "verdict")

	for _, r := range rows {
		w := pbftWorkload(*window)
		w.Warmup = 2 * time.Second
		w.PBFT.ViewChangeTimeout = *timer
		w.PBFT.NewViewTimeout = *timer / 2
		w.PBFT.TimerMode = r.mode
		// Clients retry well within the timer period, as real PBFT
		// clients do.
		w.Correct.Retry = 500 * time.Millisecond
		w.Correct.RetryCap = 2 * time.Second
		w.Malicious.Retry = 500 * time.Millisecond
		w.Malicious.RetryCap = 2 * time.Second
		runner, err := cluster.NewRunner(w)
		if err != nil {
			fatal(err)
		}
		vals := maps.Clone(base)
		if r.slow {
			vals[plugin.DimSlowPrimary] = 1
		}
		if r.collude {
			vals[plugin.DimCollude] = 1
		}
		res, rep := runner.RunReport(space.New(vals))
		verdict := "primary kept"
		if rep.ViewsInstalled > 0 {
			verdict = fmt.Sprintf("primary deposed (%d view changes)", rep.ViewsInstalled)
		}
		fmt.Printf("%-46s %14.2f %14v %8d %s\n",
			r.name, res.Throughput, res.AvgLatency.Round(time.Millisecond), rep.ViewsInstalled, verdict)
	}

	fmt.Println("\npaper §6: single timer + slow primary -> 0.2 req/s; with collusion -> 0 useful req/s;")
	fmt.Println("Aardvark avoids this class of bug by enforcing minimum primary throughput.")
}
