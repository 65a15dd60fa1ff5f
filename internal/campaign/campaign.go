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
	Strategy   string        // avd | random | genetic | coverage
	Tests      int           // per-process test budget
	Seed       int64         // explorer seed
	Measure    time.Duration // virtual measurement window per test
	Plugins    string        // comma-separated plugin names ("" = target default)
	Faults     string        // comma-separated fault-vocabulary-v2 names
	StepBudget uint64        // per-test simulation event budget
	Workers    int           // parallel test-execution workers; below 1 runs as 1, which is what Build records
	Shard      int           // 0-based shard index
	Shards     int           // K; <= 1 means unsharded
}

// RegisterFlags defines the campaign flags, -target through -workers, on
// fs; parsing fs fills c. Shard and Shards are not among them: avd takes
// one shard as -shard k/K, and avdd the shard count as -shards.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Target, "target", "pbft", "system under test: pbft | raft")
	fs.StringVar(&c.Strategy, "strategy", "avd", "exploration strategy: avd | random | genetic | coverage")
	fs.IntVar(&c.Tests, "tests", 125, "test budget (per shard when sharded)")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed (every shard derives its own deterministic stream)")
	fs.DurationVar(&c.Measure, "measure", 1500*time.Millisecond, "virtual measurement window per test")
	fs.StringVar(&c.Plugins, "plugins", "", "comma-separated plugins (pbft: maccorrupt,clients,reorder,faultplan,slowprimary; raft: raftclients,leaderflap); empty = target default")
	fs.StringVar(&c.Faults, "faults", "", "comma-separated fault-vocabulary-v2 plugins armed on top of -plugins: crash (crash-restart with optional durable-state loss), skew (per-node clock drift), oneway (asymmetric partition), corrupt, dup (per-link ModMask corruption/duplication)")
	fs.Uint64Var(&c.StepBudget, "stepbudget", 2_000_000, "per-test simulation event budget; a scenario that exceeds it is reported hung instead of stalling the campaign (0 = unlimited)")
	fs.IntVar(&c.Workers, "workers", 1, "parallel test-execution workers (results are reproducible per seed+workers pair)")
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

// basePlugins resolves the -plugins flag (or the target's default
// attack surface) plus the target's node count for fault sizing.
func basePlugins(target, pluginsCS string) ([]core.Plugin, int64, error) {
	switch target {
	case "pbft":
		plugins, err := ParsePBFTPlugins(pluginsCS)
		if err != nil {
			return nil, 0, err
		}
		if len(plugins) == 0 {
			plugins = []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
		}
		return plugins, int64(cluster.DefaultWorkload().PBFT.N), nil
	case "raft":
		plugins, err := ParseRaftPlugins(pluginsCS)
		if err != nil {
			return nil, 0, err
		}
		if len(plugins) == 0 {
			plugins = []core.Plugin{raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin()}
		}
		return plugins, int64(raftsim.DefaultWorkload().Raft.N), nil
	default:
		return nil, 0, fmt.Errorf("campaign: unknown target %q (want pbft or raft)", target)
	}
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
// set and its composed space.
func BuildExplorer(strategy string, seed int64, space *scenario.Space, plugins []core.Plugin) (core.Explorer, error) {
	switch strategy {
	case "avd":
		return core.NewController(core.ControllerConfig{Seed: seed, SeedTests: 10}, plugins...)
	case "random":
		return core.NewRandomExplorer(space, seed), nil
	case "genetic":
		return core.NewGenetic(core.GeneticConfig{Seed: seed}, plugins...)
	case "coverage":
		return core.NewCoverageExplorer(core.CoverageConfig{Seed: seed}, plugins...)
	default:
		return nil, fmt.Errorf("campaign: unknown strategy %q (want avd, random, genetic or coverage)", strategy)
	}
}

// ParseFaults maps -faults names to the shared fault-vocabulary-v2
// plugins, sized to the target cluster. "corrupt" and "dup" are two axes
// of the same netfaults plugin, so naming either (or both) arms it once.
func ParseFaults(cs string, nodes int64) ([]core.Plugin, error) {
	var out []core.Plugin
	netFaults := false
	for _, name := range strings.Split(cs, ",") {
		switch strings.TrimSpace(name) {
		case "crash":
			out = append(out, plugin.NewCrashRestart())
		case "skew":
			out = append(out, plugin.NewClockSkew(nodes))
		case "oneway":
			out = append(out, plugin.NewOneWay(nodes))
		case "corrupt", "dup":
			netFaults = true
		case "":
		default:
			return nil, fmt.Errorf("campaign: unknown fault %q (want crash, skew, oneway, corrupt or dup)", name)
		}
	}
	if netFaults {
		out = append(out, plugin.NewNetFaults(nodes))
	}
	return out, nil
}

// ParsePBFTPlugins maps -plugins names for the PBFT target.
func ParsePBFTPlugins(cs string) ([]core.Plugin, error) {
	var out []core.Plugin
	for _, name := range strings.Split(cs, ",") {
		switch strings.TrimSpace(name) {
		case "maccorrupt":
			out = append(out, plugin.NewMACCorrupt())
		case "clients":
			out = append(out, plugin.NewClients())
		case "reorder":
			out = append(out, &plugin.Reorder{})
		case "faultplan":
			out = append(out, plugin.NewFaultPlan())
		case "slowprimary":
			out = append(out, &plugin.SlowPrimary{})
		case "":
		default:
			return nil, fmt.Errorf("campaign: unknown pbft plugin %q", name)
		}
	}
	return out, nil
}

// ParseRaftPlugins maps -plugins names for the Raft target.
func ParseRaftPlugins(cs string) ([]core.Plugin, error) {
	var out []core.Plugin
	for _, name := range strings.Split(cs, ",") {
		switch strings.TrimSpace(name) {
		case "raftclients":
			out = append(out, raftsim.NewClientsPlugin())
		case "leaderflap":
			out = append(out, raftsim.NewLeaderFlapPlugin())
		case "":
		default:
			return nil, fmt.Errorf("campaign: unknown raft plugin %q", name)
		}
	}
	return out, nil
}

// StatePaths derives the on-disk layout of one shard's durable state
// inside a campaign state directory. Unsharded campaigns (shards <= 1)
// use the same layout with K=1, so a single-process -state run and a
// 1-shard supervised run share files.
type StatePaths struct {
	Checkpoint string // durable snapshot (journal lives at .journal)
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
