package targettest

import (
	"encoding/binary"
	"fmt"
	"testing"

	"avd/internal/core"
	"avd/internal/scenario"
	"avd/internal/sim"
)

// fuzzForks is how many forks one input interleaves.
const fuzzForks = 6

// fuzzPopulationIndex caps a structural axis's index, so a population
// stays small enough for a fuzzer to run many inputs per second.
const fuzzPopulationIndex = 6

// FuzzForkEqualsCold is the fuzzed form of forked == cold (DESIGN.md §2,
// §20): a random scenario of Internals.Space runs cold — the first run of
// a fresh target — for each of two or three client populations, and then
// forks on one more target in a random interleaving across those
// populations, over a poisoned slab pool and with the queue hooks fuzzed
// too. Every fork must equal its population's cold run: Result, report
// and oracle trace.
func FuzzForkEqualsCold[W any, K comparable, D core.Deployment[R], R any](f *testing.F, spec Internals[W, K, D, R]) {
	for _, seed := range spec.FuzzSeeds {
		f.Add(fuzzAxes(spec.Space, seed.Point), seed.Pops, seed.Order, seed.SplitTrains, seed.EagerResets)
	}
	f.Fuzz(func(t *testing.T, axes, pops []byte, order uint32, splitTrains, eagerResets bool) {
		poison(t)
		sim.SetSplitTrains(splitTrains)
		sim.SetEagerResets(eagerResets)
		defer func() {
			sim.SetSplitTrains(false)
			sim.SetEagerResets(false)
		}()
		n := 2 + int(order%2)
		order /= 2
		scs := fuzzScenarios(spec.Space, axes, pops, n)
		cold := make([]traced[R], n)
		for p, sc := range scs {
			res, rep, trace := spec.New(t, spec.Fuzz).RunTraced(sc)
			cold[p] = traced[R]{res, rep, trace}
		}
		tg := spec.New(t, spec.Fuzz)
		for i := range fuzzForks {
			p := int(order % uint32(n))
			order /= uint32(n)
			res, rep, trace := tg.RunTraced(scs[p])
			if msg := diff(fmt.Sprintf("fork %d of %s", i, scs[p].Key()), cold[p], traced[R]{res, rep, trace}); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// fuzzScenarios decodes an input into its populations' scenarios: axes
// holds one little-endian uint16 axis index per dimension of the space
// (missing ones are zero, large ones clamp), and pops one byte per
// structural axis per population, which replaces that axis's index.
func fuzzScenarios(space *scenario.Space, axes, pops []byte, n int) []scenario.Scenario {
	dims := space.Dimensions()
	indices := make([]int64, len(dims))
	for i := range dims {
		if 2*i+1 < len(axes) {
			indices[i] = int64(binary.LittleEndian.Uint16(axes[2*i:]))
		}
	}
	out := make([]scenario.Scenario, n)
	next := 0
	for p := range out {
		for i, d := range dims {
			if !d.Structural {
				continue
			}
			b := byte(p + 1) // populations differ unless pops says otherwise
			if next < len(pops) {
				b = pops[next]
			}
			next++
			indices[i] = int64(b) % min(d.Count(), fuzzPopulationIndex)
		}
		out[p] = space.At(indices)
	}
	return out
}

// fuzzAxes encodes a point for fuzzScenarios: the seed corpus's form.
func fuzzAxes(space *scenario.Space, values map[string]int64) []byte {
	var axes []byte
	for _, d := range space.Dimensions() {
		axes = binary.LittleEndian.AppendUint16(axes, uint16(d.Index(values[d.Name])))
	}
	return axes
}
