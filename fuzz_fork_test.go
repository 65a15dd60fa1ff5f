package avd_test

// FuzzForkEqualsCold is the fuzzed form of the forked == cold contract
// (DESIGN.md §8, §15): a random scenario of either target — MAC mask,
// client axes, every fault-v2 axis — is run cold for each of two or three
// client populations on one Runner, and then forked in a random
// interleaving across those populations, over a poisoned slab pool and
// with the engine's two queue hooks fuzzed too. Every fork must equal its
// population's cold run: Result, report and oracle trace.

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/slab"
)

// fuzzForks is how many forks one input interleaves.
const fuzzForks = 6

// fuzzPopulationIndex caps a structural axis's index, so a population
// stays small enough for a fuzzer to run many inputs per second.
const fuzzPopulationIndex = 6

func fuzzSpace(tb testing.TB, raft bool) *scenario.Space {
	tb.Helper()
	var plugins []core.Plugin
	nodes := int64(4)
	if raft {
		nodes = 5
		plugins = []core.Plugin{raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin()}
	} else {
		plugins = []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients(), &plugin.SlowPrimary{}, &plugin.Reorder{}, plugin.NewFaultPlan()}
	}
	plugins = append(plugins, plugin.NewCrashRestart(), plugin.NewClockSkew(nodes), plugin.NewOneWay(nodes), plugin.NewNetFaults(nodes))
	space, err := core.Space(plugins...)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// fuzzRunTraced is one target's RunTraced and RunTracedFork, with the
// report boxed so both targets compare alike.
type fuzzRunTraced func(sc scenario.Scenario, fork bool) (core.Result, any, []oracle.Event)

func fuzzRunner(tb testing.TB, raft bool) fuzzRunTraced {
	tb.Helper()
	if raft {
		w := raftsim.DefaultWorkload()
		w.Warmup = 300 * time.Millisecond
		w.Measure = 400 * time.Millisecond
		w.StepBudget = 100_000
		r, err := raftsim.NewRunner(w)
		if err != nil {
			tb.Fatal(err)
		}
		return func(sc scenario.Scenario, fork bool) (core.Result, any, []oracle.Event) {
			if fork {
				return boxReport(r.RunTracedFork(sc))
			}
			return boxReport(r.RunTraced(sc))
		}
	}
	w := cluster.DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 1500 * time.Millisecond // long enough for view changes
	w.StepBudget = 100_000
	r, err := cluster.NewRunner(w)
	if err != nil {
		tb.Fatal(err)
	}
	return func(sc scenario.Scenario, fork bool) (core.Result, any, []oracle.Event) {
		if fork {
			return boxReport(r.RunTracedFork(sc))
		}
		return boxReport(r.RunTraced(sc))
	}
}

func boxReport[R any](res core.Result, rep R, trace []oracle.Event) (core.Result, any, []oracle.Event) {
	return res, rep, trace
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

func FuzzForkEqualsCold(f *testing.F) {
	// A MAC-mask attack whose view changes re-propose prepared batches
	// while retransmissions heal poisoned ones.
	pbft := fuzzSpace(f, false)
	f.Add(false, fuzzAxes(pbft, map[string]int64{
		plugin.DimMACMask: int64(graycode.Decode(0xBBB)), plugin.DimMaliciousClients: 1,
	}), []byte{2, 0, 0, 0, 5, 0}, uint32(0b101101), false, false)
	// Crashes with state loss on raft, under link duplication.
	raft := fuzzSpace(f, true)
	f.Add(true, fuzzAxes(raft, map[string]int64{
		plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1,
		plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2,
	}), []byte{3, 5, 9}, uint32(0b011010), true, true)

	f.Fuzz(func(t *testing.T, raft bool, axes, pops []byte, order uint32, splitTrains, eagerResets bool) {
		slab.SetPoison(true)
		sim.SetSplitTrains(splitTrains)
		sim.SetEagerResets(eagerResets)
		defer func() {
			slab.SetPoison(false)
			sim.SetSplitTrains(false)
			sim.SetEagerResets(false)
		}()
		n := 2 + int(order%2)
		order /= 2
		scs := fuzzScenarios(fuzzSpace(t, raft), axes, pops, n)
		run := fuzzRunner(t, raft)

		type traced struct {
			res   core.Result
			rep   any
			trace []oracle.Event
		}
		cold := make([]traced, n)
		for p, sc := range scs {
			res, rep, trace := run(sc, false)
			cold[p] = traced{res, rep, trace}
		}
		for i := 0; i < fuzzForks; i++ {
			p := int(order % uint32(n))
			order /= uint32(n)
			res, rep, trace := run(scs[p], true)
			want := cold[p]
			if !reflect.DeepEqual(want.res, res) || !reflect.DeepEqual(want.rep, rep) {
				t.Fatalf("fork %d of %s differs from cold:\ncold: %+v %+v\nfork: %+v %+v", i, scs[p].Key(), want.res, want.rep, res, rep)
			}
			if !reflect.DeepEqual(want.trace, trace) {
				t.Fatalf("fork %d of %s: oracle trace differs from cold (%d vs %d events)", i, scs[p].Key(), len(want.trace), len(trace))
			}
		}
	})
}
