//go:build race

package avd_test

// raceEnabled reports a -race build, like the standard library's
// internal/race.Enabled. The race detector's instrumentation allocates,
// so allocation pins log their counts there instead of asserting them.
const raceEnabled = true
