package main

import (
	"fmt"
	"runtime"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/scenario"
)

// harnessTarget is what both shipped targets offer beyond core.Target:
// every execution capability the engine detects by type assertion, the
// phase accumulators, and a way to drop masters.
type harnessTarget interface {
	core.Target
	core.WorkerSnapshotter
	core.Preparer
	core.Warmer
	Phases() core.PhaseBreakdown
	FlushMasters()
}

// populations lists one scenario per client population of the space: the
// full grid over popDims, every other dimension at its minimum (faults
// off — Prepare reads only the population).
func populations(space *scenario.Space, popDims []string) ([]scenario.Scenario, error) {
	grid := []map[string]int64{{}}
	for _, name := range popDims {
		d, ok := space.Dim(name)
		if !ok {
			return nil, fmt.Errorf("space has no population dimension %q", name)
		}
		var next []map[string]int64
		for _, base := range grid {
			for i := int64(0); i < d.Count(); i++ {
				m := map[string]int64{name: d.Value(i)}
				for k, v := range base {
					m[k] = v
				}
				next = append(next, m)
			}
		}
		grid = next
	}
	out := make([]scenario.Scenario, len(grid))
	for i, m := range grid {
		out[i] = space.New(m)
	}
	return out, nil
}

// setupRepetition times what a campaign pays once per population before
// forks are nearly free: campaign.Build with the workload's flags on a
// fresh target, then Prepare (master build + warm-up + capture + baseline
// window) for every client population, in grid order. It makes
// w.setupPasses such passes and returns the seconds per pass. Masters are
// flushed and the heap collected between passes, outside the clock.
func setupRepetition(w workload) (float64, error) {
	var total time.Duration
	for pass := 0; pass < w.setupPasses; pass++ {
		start := time.Now()
		setup, err := campaign.Build(w.cfg)
		if err != nil {
			return 0, err
		}
		target, ok := setup.Target.(harnessTarget)
		if !ok {
			return 0, fmt.Errorf("target %s is not a full harness (fork, prepare, warm, phases, flush)", setup.Target.Name())
		}
		pops, err := populations(setup.Space, w.popDims)
		if err != nil {
			return 0, err
		}
		for _, sc := range pops {
			target.Prepare(sc)
		}
		total += time.Since(start)
		target.FlushMasters()
		runtime.GC()
	}
	return total.Seconds() / float64(w.setupPasses), nil
}
