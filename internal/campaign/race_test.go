//go:build race

package campaign

// raceEnabled reports a -race build. The race detector's instrumentation
// allocates, so allocation-count bounds are not asserted there.
const raceEnabled = true
