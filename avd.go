// Package avd is an automated vulnerability discovery platform for
// distributed systems, reproducing Banabic, Candea and Guerraoui,
// "Automated Vulnerability Discovery in Distributed Systems" (HotDep /
// DSN 2011).
//
// AVD synthesizes malicious nodes in a distributed system and searches,
// with a feedback-driven metaheuristic, for the behaviors that maximally
// degrade the performance observed by the correct, unmodified nodes. The
// search space is a hyperspace of test parameters — one dimension per
// testing-tool parameter — and the search algorithm is the paper's
// Algorithm 1: parents sampled from the top-impact set Π, plugins
// sampled by historical fitness gain, and mutation distance
// 1 − parent.impact/µ.
//
// The search engine is protocol-agnostic: a Target is any system under
// test that can execute scenarios and declare its fault-injection
// plugins, and an Engine drives any Explorer against any Target,
// streaming results as they complete. The package ships two targets — a
// complete PBFT implementation (the paper's case study: Big MAC attack,
// slow-primary bug, Figures 2 and 3) and a minimal Raft, both over the
// same deterministic discrete-event simulator — so the whole evaluation
// runs on a single machine.
//
// Every run is additionally observed by protocol oracles (agreement,
// committed-entry durability, election safety): a Result carries the
// invariants the run provably violated alongside its numeric impact,
// and Minimize delta-debugs any vulnerable scenario down to a minimal
// fault schedule that still trips the same oracle or holds the impact
// threshold. Example campaign:
//
//	target, _ := avd.NewPBFTTarget(avd.DefaultWorkload())
//	eng, _ := avd.NewEngine(target, avd.WithSeed(1), avd.WithBudget(125))
//	var best avd.Result
//	for res := range eng.Run(context.Background()) {
//	    if res.Impact > best.Impact {
//	        best = res
//	    }
//	}
//	fmt.Printf("best attack: %s impact=%.2f\n", best.Scenario, best.Impact)
//
// The cmd/avd binary runs campaigns from the command line, and its
// subcommands (avd fig2, fig3, power, bigmac, slowprimary) regenerate
// the paper's figures.
package avd

import (
	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving library users stable names.
type (
	// Result is the measured outcome of one executed test scenario.
	Result = core.Result
	// Runner executes scenarios; NewPBFTRunner returns the PBFT one.
	Runner = core.Runner
	// RunnerFunc adapts a function to Runner.
	RunnerFunc = core.RunnerFunc
	// Plugin mediates between the controller and one testing tool.
	Plugin = core.Plugin
	// Explorer proposes scenarios and learns from results.
	Explorer = core.Explorer
	// Controller is the AVD test controller (Algorithm 1).
	Controller = core.Controller
	// ControllerConfig tunes the controller.
	ControllerConfig = core.ControllerConfig
	// Genetic is the genetic-algorithm explorer, the alternative
	// metaheuristic the paper cites (§3, Inkumsah & Xie).
	Genetic = core.Genetic
	// GeneticConfig tunes the genetic explorer.
	GeneticConfig = core.GeneticConfig
	// CoverageExplorer is the coverage-guided greybox explorer: it
	// schedules mutations of corpus scenarios whose abstract event
	// timelines exhibited never-seen behavior digests (DESIGN.md §12).
	CoverageExplorer = core.CoverageExplorer
	// CoverageConfig tunes the coverage-guided explorer.
	CoverageConfig = core.CoverageConfig
	// Corpus is the archive of behavior-novel scenarios the coverage
	// explorer mutates.
	Corpus = core.Corpus
	// CorpusEntry is one retained scenario with its scheduling energy.
	CorpusEntry = core.CorpusEntry
	// Coverage is one run's abstract-timeline digest, carried on
	// Result.Coverage and persisted in checkpoints.
	Coverage = oracle.Coverage
	// Scenario is one point of the test-parameter hyperspace.
	Scenario = scenario.Scenario
	// CompactKey is the packed, allocation-free scenario identity used
	// by the hot dedup paths.
	CompactKey = scenario.CompactKey
	// Space is a composed hyperspace.
	Space = scenario.Space
	// Dimension is one axis of the hyperspace.
	Dimension = scenario.Dimension
	// Workload fixes the non-dimension parameters of PBFT tests.
	Workload = cluster.Workload
	// PBFTRunner executes scenarios as simulated PBFT deployments.
	PBFTRunner = cluster.Runner
	// Report is the detailed outcome of one PBFT test.
	Report = cluster.Report
	// Target is a system under test: a deployment harness exposing
	// scenario execution, a name, and its fault-injection plugins.
	Target = core.Target
	// Engine is the protocol-agnostic campaign driver connecting one
	// Explorer to one Target.
	Engine = core.Engine
	// EngineOption configures an Engine at construction.
	EngineOption = core.EngineOption
	// Checkpoint is a campaign's replayable progress, for
	// cancel-and-resume.
	Checkpoint = core.Checkpoint
	// CampaignObserver is the per-test callback of WithObserver.
	CampaignObserver = core.CampaignObserver
	// PBFTTarget is the PBFT system under test.
	PBFTTarget = cluster.Target
	// RaftWorkload fixes the non-dimension parameters of Raft tests.
	RaftWorkload = raftsim.Workload
	// RaftTarget is the Raft system under test.
	RaftTarget = raftsim.Target
	// RaftReport is the detailed outcome of one Raft test.
	RaftReport = raftsim.Report
	// Violation is one protocol invariant a run's oracles saw broken,
	// carried on Result.Violations.
	Violation = oracle.Violation
	// OracleEvent is one protocol observation (commit, leadership) the
	// targets emit to their oracles during a run.
	OracleEvent = oracle.Event
	// OracleChecker folds a run's event stream into violations; the
	// shipped targets wire agreement/durability (both) and election
	// safety (Raft) checkers into every run.
	OracleChecker = oracle.Checker
	// Snapshotter is the snapshot/fork capability: a Target whose runner
	// executes tests by forking a warm post-warmup deployment snapshot.
	// Engines detect it automatically; both shipped targets implement it.
	Snapshotter = core.Snapshotter
	// MinimizeConfig tunes scenario minimization.
	MinimizeConfig = core.MinimizeConfig
	// MinimizeStep reports one probed candidate during minimization.
	MinimizeStep = core.MinimizeStep
	// Minimization is the outcome of Minimize: the original result, the
	// minimal reproduction, and the probes spent.
	Minimization = core.Minimization
)

// NewController builds the AVD controller over the plugins' composed
// hyperspace.
func NewController(cfg ControllerConfig, plugins ...Plugin) (*Controller, error) {
	return core.NewController(cfg, plugins...)
}

// NewRandomExplorer returns the uniform-random baseline explorer.
func NewRandomExplorer(space *Space, seed int64) Explorer {
	return core.NewRandomExplorer(space, seed)
}

// NewGenetic builds the genetic-algorithm explorer over the plugins'
// composed hyperspace.
func NewGenetic(cfg GeneticConfig, plugins ...Plugin) (*Genetic, error) {
	return core.NewGenetic(cfg, plugins...)
}

// NewCoverageExplorer builds the coverage-guided explorer over the
// plugins' composed hyperspace.
func NewCoverageExplorer(cfg CoverageConfig, plugins ...Plugin) (*CoverageExplorer, error) {
	return core.NewCoverageExplorer(cfg, plugins...)
}

// NewCorpus returns an empty coverage corpus.
func NewCorpus() *Corpus { return core.NewCorpus() }

// NewExhaustiveExplorer returns an explorer enumerating the whole space.
func NewExhaustiveExplorer(space *Space) Explorer {
	return core.NewExhaustiveExplorer(space)
}

// NewSpace composes dimensions into a hyperspace.
func NewSpace(dims ...Dimension) (*Space, error) { return scenario.NewSpace(dims...) }

// SpaceOf composes the hyperspace owned by a plugin set.
func SpaceOf(plugins ...Plugin) (*Space, error) { return core.Space(plugins...) }

// NewEngine builds a campaign engine over a system under test. Without
// WithExplorer it constructs the paper's Controller over the target's
// plugins; Engine.Run(ctx) streams Results as they complete, honors
// context cancellation mid-campaign, and resumes from a WithCheckpoint
// checkpoint.
func NewEngine(target Target, opts ...EngineOption) (*Engine, error) {
	return core.NewEngine(target, opts...)
}

// WithWorkers sets the engine's concurrent test-execution workers; a
// fixed (seed, workers) pair is deterministic and workers=1 reproduces
// the serial campaign exactly.
func WithWorkers(n int) EngineOption { return core.WithWorkers(n) }

// WithSeed seeds the engine's default explorer (ignored when
// WithExplorer supplies one).
func WithSeed(seed int64) EngineOption { return core.WithSeed(seed) }

// WithBudget caps the number of executed tests (default 125, the
// paper's Figure-2 campaign size).
func WithBudget(n int) EngineOption { return core.WithBudget(n) }

// WithExplorer drives the campaign with an explicit explorer instead of
// the default Controller over the target's plugins.
func WithExplorer(ex Explorer) EngineOption { return core.WithExplorer(ex) }

// WithObserver registers a per-test callback, invoked in dispatch order.
func WithObserver(obs CampaignObserver) EngineOption { return core.WithObserver(obs) }

// WithCheckpoint attaches a checkpoint for cancel-and-resume campaigns.
func WithCheckpoint(ck *Checkpoint) EngineOption { return core.WithCheckpoint(ck) }

// NewCheckpoint returns an empty campaign checkpoint.
func NewCheckpoint() *Checkpoint { return core.NewCheckpoint() }

// Minimize delta-debugs a vulnerable scenario down to a minimal
// reproduction: it re-runs deterministically reduced variants of the
// scenario's fault schedule (dropping and shortening fault dimensions)
// and keeps only reductions that still trip one of the same oracle
// invariants — or, for purely quantitative findings, still hold the
// impact threshold. See core.Minimize for the algorithm.
func Minimize(runner Runner, original Result, cfg MinimizeConfig) (Minimization, error) {
	return core.Minimize(runner, original, cfg)
}

// BestSoFar maps results to their running best by impact.
func BestSoFar(results []Result) []Result { return core.BestSoFar(results) }

// TestsToImpact returns the first 1-based iteration reaching the impact
// threshold, or 0 — the paper's attacker-power proxy (§4).
func TestsToImpact(results []Result, threshold float64) int {
	return core.TestsToImpact(results, threshold)
}

// DefaultWorkload returns the paper's PBFT evaluation workload (4
// replicas, LAN latencies, compressed timers; see EXPERIMENTS.md).
func DefaultWorkload() Workload { return cluster.DefaultWorkload() }

// NewPBFTRunner builds the deployment harness executing scenarios as
// simulated PBFT clusters. Most callers want NewPBFTTarget, which wraps
// the same harness in the Target seam an Engine drives.
func NewPBFTRunner(w Workload) (*PBFTRunner, error) { return cluster.NewRunner(w) }

// NewPBFTTarget builds the PBFT system under test. With no plugins it
// exposes the paper's hyperspace (MAC corruption x deployment shape);
// pass plugins to change the attack surface.
func NewPBFTTarget(w Workload, plugins ...Plugin) (*PBFTTarget, error) {
	return cluster.NewTarget(w, plugins...)
}

// DefaultRaftWorkload returns the Raft evaluation workload (5 nodes,
// LAN latencies, compressed timers; see EXPERIMENTS.md).
func DefaultRaftWorkload() RaftWorkload { return raftsim.DefaultWorkload() }

// NewRaftTarget builds the Raft system under test. With no plugins it
// exposes the default Raft hyperspace (client population x leader-flap
// attack).
func NewRaftTarget(w RaftWorkload, plugins ...Plugin) (*RaftTarget, error) {
	return raftsim.NewTarget(w, plugins...)
}

// NewRaftClientsPlugin returns the Raft client-population plugin
// (5..50 correct clients).
func NewRaftClientsPlugin() Plugin { return raftsim.NewClientsPlugin() }

// NewLeaderFlapPlugin returns the Raft leader-flap attacker plugin
// (flap cadence x isolation length).
func NewLeaderFlapPlugin() Plugin { return raftsim.NewLeaderFlapPlugin() }

// NewMACCorruptPlugin returns the paper's 12-bit Gray-coded
// MAC-corruption plugin.
func NewMACCorruptPlugin() Plugin { return plugin.NewMACCorrupt() }

// NewClientsPlugin returns the deployment-shape plugin (10..250 correct
// clients, 1..2 malicious).
func NewClientsPlugin() Plugin { return plugin.NewClients() }

// NewReorderPlugin returns the message-reordering tool plugin (§5).
func NewReorderPlugin() Plugin { return &plugin.Reorder{} }

// NewFaultPlanPlugin returns the library-level fault-injection plugin
// (§5, LFI-style call-number faults).
func NewFaultPlanPlugin() Plugin { return plugin.NewFaultPlan() }

// NewSlowPrimaryPlugin returns the Byzantine slow-primary plugin (§6).
func NewSlowPrimaryPlugin() Plugin { return &plugin.SlowPrimary{} }

// Dimension name constants, re-exported for scenario construction.
const (
	DimMACMask          = plugin.DimMACMask
	DimCorrectClients   = plugin.DimCorrectClients
	DimMaliciousClients = plugin.DimMaliciousClients
	DimReorderPct       = plugin.DimReorderPct
	DimReorderDelayMS   = plugin.DimReorderDelayMS
	DimDropCall         = plugin.DimDropCall
	DimDropLen          = plugin.DimDropLen
	DimSlowPrimary      = plugin.DimSlowPrimary
	DimCollude          = plugin.DimCollude
	DimSlowIntervalMS   = plugin.DimSlowIntervalMS

	// Raft target dimensions.
	DimRaftClients    = raftsim.DimClients
	DimFlapIntervalMS = raftsim.DimFlapIntervalMS
	DimFlapDownMS     = raftsim.DimFlapDownMS
)
