// Package metrics provides the two measurement primitives the harness
// needs outside simulated time: the latency percentile of a finished
// sample buffer, and a wall-clock stopwatch for campaign phase telemetry.
package metrics

import (
	"slices"
	"time"
)

// PercentileInPlace computes the nearest-rank percentile of samples,
// sorting them in place — for callers that are done with the sample
// buffer (the per-test latency tails in the cluster and raftsim
// harnesses). It returns 0 for no samples.
func PercentileInPlace(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(p / 100 * float64(len(samples)))
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}

// Stopwatch measures host wall-clock phase durations for campaign
// telemetry (warmup/fork/run/analyze breakdowns). It exists so that the
// deterministic packages never call time.Now themselves: simulation
// logic must read the engine's virtual clock, and avdlint's nondet
// analyzer flags direct wall-clock reads there. Stopwatch durations are
// observability only — nothing simulated may branch on them.
type Stopwatch struct {
	start time.Time
}

// StartWatch starts a wall-clock stopwatch.
func StartWatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
