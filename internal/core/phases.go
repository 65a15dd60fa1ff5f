package core

import (
	"sync/atomic"
	"time"
)

// PhaseTimes decomposes where a fork-capable harness spends its
// wall-clock: master build+warmup, baseline measurement, snapshot
// restore+arm (the fork itself), the measurement window, and impact
// scoring. Harnesses accumulate into it with atomic adds (campaign
// workers and the pipelined prefetcher run concurrently, so on
// multi-core machines the phase seconds may legitimately sum to more
// than the campaign's wall-clock). Harness.Phases returns the breakdown;
// `benchmark --trace 1` reports it as the harness.*_s layer metrics.
type PhaseTimes struct {
	warmup   atomic.Int64
	baseline atomic.Int64
	fork     atomic.Int64
	run      atomic.Int64
	analyze  atomic.Int64
}

// PhaseBreakdown is a read-only copy of accumulated phase time, in
// seconds.
type PhaseBreakdown struct {
	WarmupSeconds   float64 `json:"warmup_seconds"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	ForkSeconds     float64 `json:"fork_seconds"`
	RunSeconds      float64 `json:"run_seconds"`
	AnalyzeSeconds  float64 `json:"analyze_seconds"`
}

// AddWarmup accrues master build+warmup time.
func (p *PhaseTimes) AddWarmup(d time.Duration) { p.warmup.Add(int64(d)) }

// AddBaseline accrues baseline measurement time.
func (p *PhaseTimes) AddBaseline(d time.Duration) { p.baseline.Add(int64(d)) }

// AddFork accrues snapshot restore + fault arming time.
func (p *PhaseTimes) AddFork(d time.Duration) { p.fork.Add(int64(d)) }

// AddRun accrues measurement-window execution time.
func (p *PhaseTimes) AddRun(d time.Duration) { p.run.Add(int64(d)) }

// AddAnalyze accrues impact scoring time.
func (p *PhaseTimes) AddAnalyze(d time.Duration) { p.analyze.Add(int64(d)) }

// Breakdown returns the accumulated phase seconds.
func (p *PhaseTimes) Breakdown() PhaseBreakdown {
	sec := func(a *atomic.Int64) float64 { return time.Duration(a.Load()).Seconds() }
	return PhaseBreakdown{
		WarmupSeconds:   sec(&p.warmup),
		BaselineSeconds: sec(&p.baseline),
		ForkSeconds:     sec(&p.fork),
		RunSeconds:      sec(&p.run),
		AnalyzeSeconds:  sec(&p.analyze),
	}
}
