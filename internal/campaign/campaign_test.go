package campaign

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

// harnessTarget restates what benchmark/ asserts on Build's target at
// run time (benchmark/setup.go). Tier-1 only type-checks that module, so
// without this test a target that dropped one of these methods would
// pass here and fail the benchmark pipeline.
type harnessTarget interface {
	core.Target
	core.WorkerSnapshotter
	core.Preparer
	core.Warmer
	Phases() core.PhaseBreakdown
	FlushMasters()
}

// TestBuildTargetsAreFullHarnesses: for every target x strategy x fault
// set the CLIs accept, Build succeeds and hands back a full harness.
func TestBuildTargetsAreFullHarnesses(t *testing.T) {
	for _, target := range []string{"pbft", "raft"} {
		for _, strategy := range []string{"avd", "random", "genetic", "coverage"} {
			for _, faults := range []string{"", "crash", "skew,oneway", "corrupt,dup", "crash,skew,oneway,corrupt,dup"} {
				setup, err := Build(Config{
					Target: target, Strategy: strategy, Faults: faults,
					Tests: 10, Seed: 1, Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
				})
				if err != nil {
					t.Fatalf("%s/%s/-faults %q: %v", target, strategy, faults, err)
				}
				if _, ok := setup.Target.(harnessTarget); !ok {
					t.Errorf("%s/%s/-faults %q: target %T is not a full harness (fork, prepare, warm, phases, flush)", target, strategy, faults, setup.Target)
				}
				if setup.Explorer == nil || setup.Space.Size() == 0 {
					t.Errorf("%s/%s/-faults %q: empty explorer or space", target, strategy, faults)
				}
			}
		}
	}
}

// TestRunForkWorkerIsRunFork: the worker-slot entry point the benchmark
// still calls is RunFork, whatever slot it names.
func TestRunForkWorkerIsRunFork(t *testing.T) {
	for _, target := range []string{"pbft", "raft"} {
		setup, err := Build(Config{
			Target: target, Strategy: "avd", Faults: "crash",
			Tests: 10, Seed: 1, Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, _, ok := setup.Explorer.Next()
		if !ok {
			t.Fatalf("%s: explorer proposed nothing", target)
		}
		h := setup.Target.(harnessTarget)
		want := h.RunFork(sc)
		if got := h.RunForkWorker(sc, 3); !reflect.DeepEqual(want, got) {
			t.Errorf("%s %s: RunForkWorker differs from RunFork:\nfork:   %+v\nworker: %+v", target, sc.Key(), want, got)
		}
		h.Prepare(sc)
		h.Warm([]scenario.Scenario{sc})
		if p := h.Phases(); p.RunSeconds <= 0 || p.BaselineSeconds <= 0 {
			t.Errorf("%s: phases did not accrue: %+v", target, p)
		}
		h.FlushMasters()
	}
}

// TestManifestRecordsEffectiveWorkers: -workers 0 (or less) runs on the
// one worker core.WithWorkers makes of it, so the manifest says 1 and a
// durable campaign started either way resumes the other; -workers 2 is a
// different campaign and still refuses.
func TestManifestRecordsEffectiveWorkers(t *testing.T) {
	manifest := func(workers int) core.Manifest {
		setup, err := Build(Config{
			Target: "raft", Strategy: "avd", Tests: 10, Seed: 1,
			Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: workers, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return setup.Manifest
	}
	one := manifest(1)
	for _, workers := range []int{0, -3} {
		m := manifest(workers)
		if m.Workers != 1 {
			t.Errorf("-workers %d: manifest records workers=%d, want 1", workers, m.Workers)
		}
		if err := one.Validate(m); err != nil {
			t.Errorf("-workers 1 does not resume -workers %d: %v", workers, err)
		}
		if err := m.Validate(one); err != nil {
			t.Errorf("-workers %d does not resume -workers 1: %v", workers, err)
		}
	}
	if err := manifest(2).Validate(one); err == nil {
		t.Error("-workers 2 resumed a -workers 1 campaign")
	}
}

// TestDefaultWorkloadsFingerprint: both shipped workloads are trees of
// scalar structs core.FingerprintConfig can encode (it panics on anything
// else), and the measure window a -measure flag sets is part of them.
func TestDefaultWorkloadsFingerprint(t *testing.T) {
	pbft, raft := cluster.DefaultWorkload(), raftsim.DefaultWorkload()
	fps := []string{core.FingerprintConfig(pbft), core.FingerprintConfig(raft)}
	pbft.Measure++
	raft.Measure++
	fps = append(fps, core.FingerprintConfig(pbft), core.FingerprintConfig(raft))
	seen := map[string]bool{}
	for _, fp := range fps {
		if seen[fp] {
			t.Fatalf("fingerprints collide: %v", fps)
		}
		seen[fp] = true
	}
}

// TestParseShard: -shard is k/K exactly — two plain decimal numbers with
// 0 <= k < K — or empty for an unsharded run; a sign, a space or anything
// after K is an error, not something to stop reading at.
func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in            string
		shard, shards int
		ok            bool
	}{
		{"", 0, 1, true},
		{"1/2", 1, 2, true},
		{"0/4", 0, 4, true},
		{"1/2/7", 0, 0, false},
		{"0/4x", 0, 0, false},
		{" 0/4", 0, 0, false},
		{"0/ 4", 0, 0, false},
		{"+1/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"2/2", 0, 0, false},
		{"0/0", 0, 0, false},
		{"3", 0, 0, false},
		{"/", 0, 0, false},
	} {
		shard, shards, err := ParseShard(tc.in)
		if (err == nil) != tc.ok || shard != tc.shard || shards != tc.shards {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, shard, shards, err, tc.shard, tc.shards, tc.ok)
		}
	}
}

// TestArgsRoundTrip: the arguments avdd hands a worker parse back into the
// supervisor's Config, with every field at its flag default and with every
// field moved off it. The shard travels as -shard k/K instead, so Shard
// and Shards are the only fields Args may leave out: a field added to
// Config without a flag fails here.
func TestArgsRoundTrip(t *testing.T) {
	var defaults Config
	defaults.RegisterFlags(flag.NewFlagSet("defaults", flag.ContinueOnError))
	moved := defaults
	v := reflect.ValueOf(&moved).Elem()
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case name == "Shard" || name == "Shards":
			continue
		case f.Kind() == reflect.String:
			f.SetString("x-" + name + ", with space")
		case f.CanInt():
			f.SetInt(f.Int() + 7001 + int64(i))
		case f.CanUint():
			f.SetUint(f.Uint() + 7001 + uint64(i))
		default:
			t.Fatalf("Config.%s is a %s: give it a value here", name, f.Kind())
		}
	}
	for _, want := range []Config{defaults, moved} {
		var got Config
		fs := flag.NewFlagSet("worker", flag.ContinueOnError)
		got.RegisterFlags(fs)
		if err := fs.Parse(want.Args()); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q parsed back into\n%+v, want\n%+v", want.Args(), got, want)
		}
	}
}

// cliConfig is Config as the binaries' flag defaults fill it.
func cliConfig(target string, tests, shard, shards int) Config {
	return Config{
		Target: target, Strategy: "avd", Tests: tests, Seed: 1,
		Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shard: shard, Shards: shards,
	}
}

// TestBuildErrors: what the flags cannot mean is an error from Build,
// before any target or state exists.
func TestBuildErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		edit func(*Config)
		want string
	}{
		"unknown target":         {func(c *Config) { c.Target = "paxos" }, `unknown target "paxos"`},
		"unknown strategy":       {func(c *Config) { c.Strategy = "annealing" }, `unknown strategy "annealing"`},
		"unknown fault":          {func(c *Config) { c.Faults = "crash,gamma-ray" }, `unknown fault "gamma-ray"`},
		"unknown plugin":         {func(c *Config) { c.Plugins = "clients,raftclients" }, `unknown pbft plugin "raftclients"`},
		"shards beyond any axis": {func(c *Config) { c.Shards = 4097 }, `cannot split 4097 ways: largest axis "mac_mask" has only 4096 values`},
	} {
		cfg := cliConfig("pbft", 10, 0, 1)
		tc.edit(&cfg)
		if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build error %v, want one naming %s", name, err, tc.want)
		}
	}
	// More shards than populations is not an error: the plan falls back
	// to the largest axis and every shard sees every population.
	setup, err := Build(cliConfig("pbft", 10, 31, 32))
	if err != nil || setup.Plan.Axis != plugin.DimMACMask {
		t.Errorf("-shard 31/32: plan %s, err %v; want the mac_mask fallback", setup.Plan, err)
	}
}

// masterKeys lists the populations a harness holds warm masters for.
func masterKeys[K comparable, D any](each func(func(K, D))) map[string]bool {
	keys := make(map[string]bool)
	each(func(k K, _ D) { keys[fmt.Sprint(k)] = true })
	return keys
}

// TestShardsPartitionPopulations is the exact form of the shard plan's
// purpose (DESIGN.md §13): the two shards of a default campaign stride
// the client-population axis, so no population is built — master,
// warm-up, baseline window — by both. Pinned are the masters the pair
// holds in total and how many of those populations a test ran on (the
// benchmark's harness.masters_built; the rest are the one-attacker
// masters that measure the baseline of a two-attacker test). Striding
// mac_mask, as the plan did before it knew which axes are structural, the
// PBFT pair built 65 masters and tested on 53, the raft pair 18 and 18.
func TestShardsPartitionPopulations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four real campaigns")
	}
	for _, tc := range []struct {
		target          string
		tests           int
		popDims         []string
		masters, tested int
		keys            func(core.Target) map[string]bool
	}{
		{"pbft", 70, []string{plugin.DimCorrectClients, plugin.DimMaliciousClients}, 44, 39,
			func(t core.Target) map[string]bool { return masterKeys(t.(*cluster.Runner).EachMaster) }},
		{"raft", 40, []string{raftsim.DimClients}, 10, 10,
			func(t core.Target) map[string]bool { return masterKeys(t.(*raftsim.Runner).EachMaster) }},
	} {
		t.Run(tc.target, func(t *testing.T) {
			t.Parallel()
			masters, tested := make(map[string]bool), 0
			for shard := 0; shard < 2; shard++ {
				setup, err := Build(cliConfig(tc.target, tc.tests, shard, 2))
				if err != nil {
					t.Fatal(err)
				}
				if setup.Plan.Axis != tc.popDims[0] {
					t.Fatalf("shard %d: plan %s, want axis %q", shard, setup.Plan, tc.popDims[0])
				}
				eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(tc.tests), core.WithWorkers(setup.Manifest.Workers))
				if err != nil {
					t.Fatal(err)
				}
				results, err := eng.RunAll(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				populations := make(map[string]bool)
				for _, r := range results {
					key := ""
					for _, d := range tc.popDims {
						key += fmt.Sprintf("%d/", r.Scenario.GetOr(d, 0))
					}
					populations[key] = true
				}
				tested += len(populations)
				for key := range tc.keys(setup.Target) {
					if masters[key] {
						t.Errorf("population %s has a master in both shards", key)
					}
					masters[key] = true
				}
			}
			if len(masters) != tc.masters || tested != tc.tested {
				t.Errorf("the two shards hold %d masters and tested on %d populations, want %d and %d", len(masters), tested, tc.masters, tc.tested)
			}
		})
	}
}

// TestShardMutationStepsOnShardGrid: in a shard that strides the client
// axis, the client plugin's smallest mutation moves one point of the
// shard's grid, either way. Stepping by the plugin's own step instead,
// +1 floors back onto the parent and -1 moves two shard points.
func TestShardMutationStepsOnShardGrid(t *testing.T) {
	for _, tc := range []struct{ target, plugin, axis string }{
		{"pbft", "clients", plugin.DimCorrectClients},
		{"raft", "raftclients", raftsim.DimClients},
	} {
		setup, err := Build(cliConfig(tc.target, 10, 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		var clients core.Plugin
		for _, p := range setup.Target.Plugins() {
			if p.Name() == tc.plugin {
				clients = p
			}
		}
		grid, _ := setup.Space.Dim(tc.axis)
		mid := grid.Value(grid.Count() / 2)
		parent := setup.Space.New(map[string]int64{tc.axis: mid})
		rng := rand.New(rand.NewSource(1))
		seen := make(map[int64]int)
		for i := 0; i < 200; i++ {
			seen[clients.Mutate(parent, 0, rng).GetOr(tc.axis, -1)]++
		}
		if len(seen) != 2 || seen[mid-grid.Step] == 0 || seen[mid+grid.Step] == 0 {
			t.Errorf("%s shard 0/2: smallest mutations of %s=%d (shard step %d) landed on %v, want both neighbours and nothing else",
				tc.target, tc.axis, mid, grid.Step, seen)
		}
	}
}
