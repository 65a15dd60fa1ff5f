// Package campaign assembles vulnerability discovery campaigns from
// flag-level configuration: target construction, plugin/fault parsing,
// explorer selection, shard planning and manifest stamping. It is the
// shared core of cmd/avd (one campaign process, possibly one shard of a
// plan) and cmd/avdd (the supervisor that launches and merges shards) —
// both binaries must derive bit-identical spaces and explorers from the
// same flags, so the derivation lives in one place.
package campaign

import (
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

// Config mirrors the campaign flags both binaries accept.
type Config struct {
	Target     string        // pbft | raft
	Strategy   string        // avd | random | coverage (an alias of avd)
	Tests      int           // per-process test budget
	Seed       int64         // explorer seed
	Measure    time.Duration // virtual measurement window per test
	Plugins    string        // comma-separated plugin names ("" = target default)
	Faults     string        // comma-separated fault-vocabulary-v2 names
	StepBudget uint64        // per-test simulation event budget
	Workers    int           // feedback batch width; below 1 runs as 1, which is what Build records
	Shard      int           // 0-based shard index
	Shards     int           // K; <= 1 means unsharded
}

// RegisterFlags defines the campaign flags, -target through -workers, on
// fs; parsing fs fills c. Shard and Shards are not among them: avd takes
// one shard as -shard k/K, and avdd the shard count as -shards.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Target, "target", "pbft", "system under test: pbft | raft")
	fs.StringVar(&c.Strategy, "strategy", "avd", "exploration strategy: avd | random | coverage (coverage is avd under its older name)")
	fs.IntVar(&c.Tests, "tests", 125, "test budget (per shard when sharded)")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed (every shard derives its own deterministic stream)")
	fs.DurationVar(&c.Measure, "measure", 1500*time.Millisecond, "virtual measurement window per test")
	fs.StringVar(&c.Plugins, "plugins", "", pluginsHelp())
	fs.StringVar(&c.Faults, "faults", "", "comma-separated fault-vocabulary-v2 plugins armed on top of -plugins: crash (crash-restart with optional durable-state loss), skew (per-node clock drift), oneway (asymmetric partition), corrupt, dup (per-link ModMask corruption/duplication)")
	fs.Uint64Var(&c.StepBudget, "stepbudget", 2_000_000, "per-test simulation event budget; a scenario that exceeds it is reported hung instead of stalling the campaign (0 = unlimited)")
	fs.IntVar(&c.Workers, "workers", 1, "feedback batch: tests proposed before their results are fed back; results are a function of seed and this value; up to GOMAXPROCS tests run at once")
}

// Args renders c's campaign flags as the arguments RegisterFlags parses
// back into c: what a supervisor hands each worker. Every registered flag
// is rendered, so a flag added there reaches the workers too.
func (c Config) Args() []string {
	var bound Config
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	bound.RegisterFlags(fs)
	bound = c // the flags read bound's fields, so they now render c
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// Setup is a fully assembled campaign, ready to hand to core.NewEngine.
type Setup struct {
	// Target is the system under test; when sharded its plugins are
	// already wrapped to shard Config.Shard's sub-space.
	Target core.Target
	// Space is the hyperspace the engine explores: the shard sub-space
	// when sharded, FullSpace otherwise.
	Space *scenario.Space
	// FullSpace is the unsharded hyperspace; MergeShards needs it.
	FullSpace *scenario.Space
	// Explorer implements Config.Strategy over Space.
	Explorer core.Explorer
	// Plan is the shard plan (zero value when unsharded).
	Plan core.ShardPlan
	// Manifest pins every determinism-relevant knob for durable resume.
	Manifest core.Manifest
}

// ParseShard parses a -shard flag of the form "k/K" (0-based k in
// [0, K)). The empty string means unsharded (0, 1).
func ParseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	// Two plain decimal numbers and nothing else — ParseUint takes no sign,
	// no space and no trailing byte — so "1/2/7junk" is not shard 1 of 2.
	index, count, ok := strings.Cut(s, "/")
	k, errIndex := strconv.ParseUint(index, 10, 31)
	n, errCount := strconv.ParseUint(count, 10, 31)
	if !ok || errIndex != nil || errCount != nil {
		return 0, 0, fmt.Errorf("campaign: -shard %q: want k/K (e.g. 0/4)", s)
	}
	if k >= n {
		return 0, 0, fmt.Errorf("campaign: -shard %q: k must be in [0, K)", s)
	}
	return int(k), int(n), nil
}

// Build assembles the campaign a Config describes. Shard planning is a
// pure function of the plugin set, so every process handed the same
// flags — each worker and the supervisor — derives the same plan.
func Build(cfg Config) (*Setup, error) {
	if cfg.Tests < 1 {
		return nil, fmt.Errorf("campaign: -tests %d must be at least 1", cfg.Tests)
	}
	// The manifest records the campaign that runs: -workers 0 and -workers 1
	// execute the same tests in the same order and must resume each other.
	cfg.Workers = max(cfg.Workers, 1)
	plugins, nodes, err := basePlugins(cfg.Target, cfg.Plugins)
	if err != nil {
		return nil, err
	}
	faults, err := ParseFaults(cfg.Faults, nodes)
	if err != nil {
		return nil, err
	}
	plugins = append(plugins, faults...)

	full, err := core.Space(plugins...)
	if err != nil {
		return nil, err
	}
	var plan core.ShardPlan
	if cfg.Shards > 1 {
		plan, err = core.PlanShards(full, cfg.Shards)
		if err != nil {
			return nil, err
		}
		plugins, err = plan.WrapPlugins(plugins, cfg.Shard)
		if err != nil {
			return nil, err
		}
	}

	target, err := newTarget(cfg, plugins)
	if err != nil {
		return nil, err
	}
	space, err := core.Space(target.Plugins()...)
	if err != nil {
		return nil, err
	}
	explorer, err := BuildExplorer(cfg.Strategy, cfg.Seed, space, target.Plugins())
	if err != nil {
		return nil, err
	}

	m := core.Manifest{
		Target:   cfg.Target,
		Strategy: cfg.Strategy,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Budget:   cfg.Tests,
		Plugins:  cfg.Plugins,
		Faults:   cfg.Faults,
		Space:    core.SpaceSignature(space),
	}
	if cfg.Shards > 1 {
		m.Shards, m.Shard, m.ShardAxis = cfg.Shards, cfg.Shard, plan.Axis
	}
	if fp, ok := target.(core.ConfigFingerprinter); ok {
		m.Config = fp.ConfigFingerprint()
	}
	return &Setup{Target: target, Space: space, FullSpace: full, Explorer: explorer, Plan: plan, Manifest: m}, nil
}

// targetPlugins is each target's -plugins vocabulary, in the order the
// flag's help lists it, with its default plugin set and its node count
// for fault sizing. A plugin is named by the name it reports.
var targetPlugins = []struct {
	target   string
	plugins  []func() core.Plugin
	defaults func() []core.Plugin
	nodes    int64
}{
	{"pbft", []func() core.Plugin{plugin.NewMACCorrupt, plugin.NewClients, plugin.NewReorder, plugin.NewFaultPlan, plugin.NewSlowPrimary},
		cluster.DefaultPlugins, int64(cluster.DefaultWorkload().PBFT.N)},
	{"raft", []func() core.Plugin{raftsim.NewClientsPlugin, raftsim.NewLeaderFlapPlugin},
		raftsim.DefaultPlugins, int64(raftsim.DefaultWorkload().Raft.N)},
}

// pluginNames lists a target's -plugins vocabulary.
func pluginNames(plugins []func() core.Plugin) []string {
	out := make([]string, len(plugins))
	for i, newPlugin := range plugins {
		out[i] = newPlugin().Name
	}
	return out
}

// pluginsHelp is the -plugins flag's help text, read off targetPlugins.
func pluginsHelp() string {
	var lists []string
	for _, t := range targetPlugins {
		lists = append(lists, t.target+": "+strings.Join(pluginNames(t.plugins), ","))
	}
	return "comma-separated plugins (" + strings.Join(lists, "; ") + "); empty = target default"
}

// basePlugins resolves the -plugins flag (or the target's default
// attack surface) plus the target's node count for fault sizing.
func basePlugins(target, pluginsCS string) ([]core.Plugin, int64, error) {
	for _, t := range targetPlugins {
		if t.target != target {
			continue
		}
		var out []core.Plugin
		for _, name := range names(pluginsCS) {
			i := slices.Index(pluginNames(t.plugins), name)
			if i < 0 {
				return nil, 0, fmt.Errorf("campaign: unknown %s plugin %q (want %s)", target, name, strings.Join(pluginNames(t.plugins), ", "))
			}
			out = append(out, t.plugins[i]())
		}
		if len(out) == 0 {
			out = t.defaults()
		}
		return out, t.nodes, nil
	}
	return nil, 0, fmt.Errorf("campaign: unknown target %q (want pbft or raft)", target)
}

// newTarget builds the system under test around an explicit plugin set.
func newTarget(cfg Config, plugins []core.Plugin) (core.Target, error) {
	switch cfg.Target {
	case "pbft":
		w := cluster.DefaultWorkload()
		w.Measure = cfg.Measure
		w.StepBudget = cfg.StepBudget
		return cluster.NewTarget(w, plugins...)
	case "raft":
		w := raftsim.DefaultWorkload()
		w.Measure = cfg.Measure
		w.StepBudget = cfg.StepBudget
		return raftsim.NewTarget(w, plugins...)
	default:
		return nil, fmt.Errorf("campaign: unknown target %q (want pbft or raft)", cfg.Target)
	}
}

// BuildExplorer constructs the named exploration strategy over a plugin
// set and its composed space. "coverage" names the Controller too: its
// novelty archive is the coverage-guided search that name once chose.
func BuildExplorer(strategy string, seed int64, space *scenario.Space, plugins []core.Plugin) (core.Explorer, error) {
	switch strategy {
	case "avd", "coverage":
		return core.NewController(core.ControllerConfig{Seed: seed, SeedTests: 10}, plugins...)
	case "random":
		return core.NewRandomExplorer(space, seed), nil
	default:
		return nil, fmt.Errorf("campaign: unknown strategy %q (want avd, random or coverage)", strategy)
	}
}

// names splits a comma-separated -faults or -plugins list into its
// names, first occurrence only: a name given twice arms its plugin once.
func names(cs string) []string {
	var out []string
	for _, name := range strings.Split(cs, ",") {
		if name = strings.TrimSpace(name); name != "" && !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

// ParseFaults maps -faults names to the shared fault-vocabulary-v2
// plugins, sized to the target cluster. "corrupt" and "dup" are the two
// mask axes of the netfaults plugin, which exposes the named ones only.
func ParseFaults(cs string, nodes int64) ([]core.Plugin, error) {
	var out []core.Plugin
	corrupt, dup := false, false
	for _, name := range names(cs) {
		switch name {
		case "crash":
			out = append(out, plugin.NewCrashRestart())
		case "skew":
			out = append(out, plugin.NewClockSkew(nodes))
		case "oneway":
			out = append(out, plugin.NewOneWay(nodes))
		case "corrupt":
			corrupt = true
		case "dup":
			dup = true
		default:
			return nil, fmt.Errorf("campaign: unknown fault %q (want crash, skew, oneway, corrupt or dup)", name)
		}
	}
	if corrupt || dup {
		out = append(out, plugin.NewNetFaults(nodes, corrupt, dup))
	}
	return out, nil
}

// StatePaths derives the on-disk layout of one shard's durable state
// inside a campaign state directory. Unsharded campaigns (shards <= 1)
// use the same layout with K=1, so a single-process -state run and a
// 1-shard supervised run share files.
type StatePaths struct {
	Checkpoint string // durable checkpoint root; only Checkpoint+".journal" is written
	Manifest   string // pinned configuration
	Heartbeat  string // liveness file the worker touches per batch
}

// PathsFor names shard k's files under dir.
func PathsFor(dir string, k, shards int) StatePaths {
	if shards < 1 {
		shards = 1
	}
	base := fmt.Sprintf("shard-%d-of-%d", k, shards)
	return StatePaths{
		Checkpoint: filepath.Join(dir, base+".ckpt"),
		Manifest:   filepath.Join(dir, base+".manifest.json"),
		Heartbeat:  filepath.Join(dir, base+".hb"),
	}
}
