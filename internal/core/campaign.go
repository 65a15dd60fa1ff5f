package core

import "avd/internal/scenario"

// CampaignObserver is called after each executed test with the 1-based
// iteration and its result.
type CampaignObserver func(iteration int, res Result)

// Warmer is an optional Target refinement: before dispatching a batch of
// scenarios to concurrent workers, the Engine offers the target a look at
// the batch so shared derived state (e.g. per-client-count baseline
// measurements in cluster.Runner) can be computed once up front instead
// of redundantly inside several workers.
type Warmer interface {
	Warm(batch []scenario.Scenario)
}

// BestSoFar maps a result sequence to its running maximum impact — the
// "evolution of the performance impact" curves of Figure 2.
func BestSoFar(results []Result) []Result {
	out := make([]Result, len(results))
	var best Result
	for i, r := range results {
		if i == 0 || r.Impact > best.Impact {
			best = r
		}
		out[i] = best
	}
	return out
}

// TestsToImpact returns the 1-based iteration at which the running best
// impact first reached the threshold, or 0 if it never did — the paper's
// "number of tests necessary for AVD to find a vulnerability" metric
// (§4).
func TestsToImpact(results []Result, threshold float64) int {
	for i, r := range results {
		if r.Impact >= threshold {
			return i + 1
		}
	}
	return 0
}
