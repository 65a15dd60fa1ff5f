package campaign

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		for _, strategy := range []string{"avd", "random", "coverage"} {
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

// TestPluginsHelpNamesParse: every plugin the -plugins help lists for a
// target builds a campaign on that target with that plugin alone, and the
// help lists both targets.
func TestPluginsHelpNamesParse(t *testing.T) {
	var cfg Config
	fs := flag.NewFlagSet("avd", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	help := fs.Lookup("plugins").Usage
	open, end := strings.Index(help, "("), strings.Index(help, ")")
	if open < 0 || end < open {
		t.Fatalf("-plugins help lists no plugins: %q", help)
	}
	var targets []string
	for _, list := range strings.Split(help[open+1:end], "; ") {
		target, names, _ := strings.Cut(list, ": ")
		targets = append(targets, target)
		for _, name := range strings.Split(names, ",") {
			cfg := cliConfig(target, 10, 0, 1)
			cfg.Plugins = name
			setup, err := Build(cfg)
			if err != nil {
				t.Errorf("-target %s -plugins %s: %v", target, name, err)
				continue
			}
			if got := setup.Target.Plugins(); len(got) != 1 || got[0].Name != name {
				t.Errorf("-target %s -plugins %s: built %d plugins, want %s alone", target, name, len(got), name)
			}
		}
	}
	if !slices.Equal(targets, []string{"pbft", "raft"}) {
		t.Errorf("-plugins help lists targets %q, want pbft and raft: %q", targets, help)
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
		"retired strategy":       {func(c *Config) { c.Strategy = "genetic" }, `unknown strategy "genetic" (want avd, random or coverage)`},
		"unknown fault":          {func(c *Config) { c.Faults = "crash,gamma-ray" }, `unknown fault "gamma-ray"`},
		"unknown plugin":         {func(c *Config) { c.Plugins = "clients,raftclients" }, `unknown pbft plugin "raftclients" (want maccorrupt, clients, reorder, faultplan, slowprimary)`},
		"shards beyond any axis": {func(c *Config) { c.Shards = 4097 }, `cannot split 4097 ways: largest axis "mac_mask" has only 4096 values`},
		"no tests":               {func(c *Config) { c.Tests = 0 }, `-tests 0 must be at least 1`},
		"negative tests":         {func(c *Config) { c.Tests = -3 }, `-tests -3 must be at least 1`},
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

// TestRepeatedNamesArmOnce: a -faults or -plugins name given twice used
// to add its plugin twice and fail on the duplicate dimension without
// naming the flag ("-faults crash,crash": scenario: duplicate dimension
// "crash_interval_ms"). A repeated name now arms its plugin once.
func TestRepeatedNamesArmOnce(t *testing.T) {
	for _, tc := range []struct {
		target, plugins, faults string
		same                    Config
	}{
		{"pbft", "", "crash,crash", Config{Faults: "crash"}},
		{"pbft", "", "skew, oneway,skew,,oneway", Config{Faults: "skew,oneway"}},
		{"pbft", "", "corrupt,dup,corrupt,dup", Config{Faults: "dup,corrupt"}},
		{"pbft", "maccorrupt,clients,maccorrupt", "", Config{Plugins: "maccorrupt,clients"}},
		{"pbft", "reorder,slowprimary,reorder,slowprimary", "crash,skew,crash", Config{Plugins: "reorder,slowprimary", Faults: "crash,skew"}},
		{"raft", "leaderflap,raftclients,leaderflap", "", Config{Plugins: "leaderflap,raftclients"}},
		{"raft", "", "crash,oneway,crash", Config{Faults: "crash,oneway"}},
	} {
		cfg := cliConfig(tc.target, 10, 0, 1)
		cfg.Plugins, cfg.Faults = tc.plugins, tc.faults
		want := cliConfig(tc.target, 10, 0, 1)
		want.Plugins, want.Faults = tc.same.Plugins, tc.same.Faults
		got, err := Build(cfg)
		if err != nil {
			t.Errorf("%s -plugins %q -faults %q: %v", tc.target, tc.plugins, tc.faults, err)
			continue
		}
		once, err := Build(want)
		if err != nil {
			t.Fatal(err)
		}
		if got.Manifest.Space != once.Manifest.Space {
			t.Errorf("%s -plugins %q -faults %q explores\n%s\nwant the space of -plugins %q -faults %q:\n%s",
				tc.target, tc.plugins, tc.faults, got.Manifest.Space, want.Plugins, want.Faults, once.Manifest.Space)
		}
	}
}

// TestFaultNamesSelectMaskAxes: "-faults corrupt" used to arm duplication
// too, and "-faults dup" corruption, because either name armed the whole
// netfaults plugin. Each name now exposes its own mask axis only, and no
// mutation touches the other; naming both is the full plugin, axis for
// axis and random draw for random draw.
func TestFaultNamesSelectMaskAxes(t *testing.T) {
	for _, tc := range []struct {
		faults       string
		corrupt, dup bool
	}{
		{"corrupt", true, false},
		{"dup", false, true},
		{"corrupt,dup", true, true},
	} {
		for _, target := range []string{"pbft", "raft"} {
			cfg := cliConfig(target, 10, 0, 1)
			cfg.Faults = tc.faults
			setup, err := Build(cfg)
			if err != nil {
				t.Fatalf("%s -faults %s: %v", target, tc.faults, err)
			}
			_, corrupt := setup.Space.Dim(plugin.DimCorruptMask)
			_, dup := setup.Space.Dim(plugin.DimDupMask)
			if corrupt != tc.corrupt || dup != tc.dup {
				t.Errorf("%s -faults %s: %s axis %t, %s axis %t; want %t, %t",
					target, tc.faults, plugin.DimCorruptMask, corrupt, plugin.DimDupMask, dup, tc.corrupt, tc.dup)
			}
			nf := setup.Target.Plugins()[len(setup.Target.Plugins())-1]
			from, _ := setup.Space.Dim(plugin.DimNetFaultFrom)
			full := plugin.NewNetFaults(from.Max, true, true)
			if tc.corrupt && tc.dup && !reflect.DeepEqual(nf.Dims, full.Dims) {
				t.Errorf("%s -faults %s: dimensions %v, the full plugin's %v", target, tc.faults, nf.Dims, full.Dims)
			}
			rng, fullRNG := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			sc := setup.Space.New(nil)
			for i := 0; i < 200; i++ {
				distance := float64(i%10) / 10
				next := nf.Mutate(sc, distance, rng)
				if v := next.GetOr(plugin.DimCorruptMask, 0); !tc.corrupt && v != 0 {
					t.Fatalf("%s -faults %s: a mutation set %s=%d", target, tc.faults, plugin.DimCorruptMask, v)
				}
				if v := next.GetOr(plugin.DimDupMask, 0); !tc.dup && v != 0 {
					t.Fatalf("%s -faults %s: a mutation set %s=%d", target, tc.faults, plugin.DimDupMask, v)
				}
				if tc.corrupt && tc.dup {
					if want := full.Mutate(sc, distance, fullRNG); next.Key() != want.Key() {
						t.Fatalf("%s -faults %s: mutation %d is %s, the full plugin's %s", target, tc.faults, i, next.Key(), want.Key())
					}
				}
				sc = next
			}
		}
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
// The PBFT pair built 44 and tested on 39 while a stalled avd search drew
// uniform random probes; its novelty-archive mutants stay closer to the
// populations already built.
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
		{"pbft", 70, []string{plugin.DimCorrectClients, plugin.DimMaliciousClients}, 41, 33,
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
			if p.Name == tc.plugin {
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
