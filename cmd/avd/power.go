package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
)

// power quantifies the "power of an attacker" idea of §4: the number of
// tests AVD needs to find a vulnerability is a rule-of-thumb for how hard
// a real attacker with the same capabilities would have to work. We grant
// the controller successively more power — more tools, i.e. more plugins
// and hyperspace dimensions — and report the tests needed to reach a
// damaging attack at each level, averaged over seeds.
func power(args []string) {
	fs := flag.NewFlagSet("avd power", flag.ExitOnError)
	var (
		budget  = fs.Int("budget", 80, "test budget per campaign")
		seeds   = fs.Int("seeds", 5, "seeds to average over")
		measure = fs.Duration("measure", time.Second, "virtual measurement window per test")
		thresh  = fs.Float64("impact", 0.9, "impact threshold counting as 'vulnerability found'")
		workers = fs.Int("workers", 1, "parallel test-execution workers per campaign (results are reproducible per seed+workers pair)")
	)
	parseFlags(fs, args)
	if *budget < 1 {
		fatal(fmt.Errorf("-budget %d must be at least 1", *budget))
	}
	if *seeds < 1 {
		fatal(fmt.Errorf("-seeds %d must be at least 1", *seeds))
	}

	levels := []struct {
		name    string
		access  string
		plugins func() []core.Plugin
	}{
		{
			"client MAC corruption only",
			"one compromised client, no deployment control",
			func() []core.Plugin { return []core.Plugin{plugin.NewMACCorrupt()} },
		},
		{
			"+ deployment shape",
			"attacker also picks when to strike (load level, #accomplices)",
			func() []core.Plugin { return []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()} },
		},
		{
			"+ network reordering",
			"attacker additionally controls part of the network",
			func() []core.Plugin {
				return []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.Reorder{}}
			},
		},
		{
			"+ compromised replica",
			"attacker controls a server node (slow primary)",
			func() []core.Plugin {
				return []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.Reorder{}, &plugin.SlowPrimary{}}
			},
		},
	}

	w := pbftWorkload(*measure)
	fmt.Printf("attacker power vs. tests-to-find (impact >= %.2f), %d seeds x %d tests\n\n", *thresh, *seeds, *budget)
	fmt.Printf("%-32s %14s %10s  %s\n", "power level", "tests-to-find", "found", "attacker position")
	for _, level := range levels {
		target, err := cluster.NewTarget(w, level.plugins()...)
		if err != nil {
			fatal(err)
		}
		total, found := 0, 0
		for seed := 1; seed <= *seeds; seed++ {
			ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(seed), SeedTests: 8}, target.Plugins()...)
			if err != nil {
				fatal(err)
			}
			eng, err := core.NewEngine(target,
				core.WithExplorer(ctrl), core.WithBudget(*budget), core.WithWorkers(*workers))
			if err != nil {
				fatal(err)
			}
			results, err := eng.RunAll(context.Background())
			if err != nil {
				fatal(err)
			}
			if n := core.TestsToImpact(results, *thresh); n > 0 {
				total += n
				found++
			} else {
				total += *budget
			}
		}
		avg := float64(total) / float64(*seeds)
		fmt.Printf("%-32s %14.1f %7d/%d  %s\n", level.name, avg, found, *seeds, level.access)
	}
	fmt.Println("\nfewer tests-to-find at higher power levels = less effort for an")
	fmt.Println("equally-capable real attacker; use this ordering to prioritize fixes (§4).")
}
