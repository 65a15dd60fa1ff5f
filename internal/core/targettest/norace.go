//go:build !race

package targettest

// raceEnabled reports a -race build (see race.go).
const raceEnabled = false
