// Package cluster is AVD's deployment harness: it instantiates a test
// scenario as a full PBFT deployment over the simulated network (the
// stand-in for the paper's Emulab testbed), runs a warmup plus a
// measurement window, and computes the scenario's impact as the
// throughput/latency observed by the correct clients (§3: "the metric
// used by AVD to assess the impact of a test is the impact on the
// correct, unmodified nodes").
package cluster

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/simnet"
)

// Workload fixes everything about a test that is not a hyperspace
// dimension: protocol configuration, network model, timing, seeds.
//
// The default timeouts are compressed ~10x relative to the paper's
// deployment (500 ms view-change timer instead of 5 s) so that a
// measurement window of a few virtual seconds spans several
// timer/view-change cycles; EXPERIMENTS.md discusses the scaling. The
// slow-primary experiment (avd slowprimary) uses the paper's real 5 s
// timer, where the 0.2 req/s result emerges exactly.
type Workload struct {
	// PBFT is the protocol configuration shared by all replicas.
	PBFT pbft.Config
	// Net is the simulated network model.
	Net simnet.Config
	// Seed drives all simulation randomness; a test is a deterministic
	// function of (Workload, Scenario).
	Seed int64
	// Warmup runs before measurement starts.
	Warmup time.Duration
	// Measure is the measurement window over which throughput and
	// latency are computed.
	Measure time.Duration
	// Correct configures the correct closed-loop clients.
	Correct pbft.ClientConfig
	// Malicious configures the MAC-corrupting clients.
	Malicious pbft.ClientConfig
	// MaskBits is the width of the MAC-corruption mask (12 in the
	// paper).
	MaskBits uint
	// CrashOnBadReproposal applies the modeled view-change crash defect
	// (see internal/pbft); the attacked implementation had it, so the
	// default workload enables it.
	CrashOnBadReproposal bool
	// LatencyRef scales the latency component of the impact metric: a
	// scenario whose average correct-client latency reaches LatencyRef
	// maxes that component. The paper's impact tracks both panels of
	// Figure 2 — throughput collapse and latency inflation — so impact
	// here is 0.8*(1-tput/baseline) + 0.2*min(1, lat/LatencyRef). Zero
	// disables the latency component.
	LatencyRef time.Duration
	// Equivocate injects an equivocating primary (replica 0 proposes
	// conflicting batches for the same sequence number) for oracle
	// validation. On its own, correct quorums absorb the equivocation;
	// combined with PBFT.QuorumBug it produces an executed agreement
	// violation that the run's oracles report on the Result.
	Equivocate bool
	// ByzantineReplica selects which replica carries the armed Byzantine
	// behavior (default 0). Pointing it at a backup makes the injected
	// defect schedule-dependent: an equivocating backup is harmless until
	// view-change churn rotates the primaryship onto it, so a search has
	// to drive view changes before the violation can fire.
	ByzantineReplica int
	// StepBudget caps the number of engine events one measurement window
	// may execute (0 = unlimited). A scenario that drives the deployment
	// into an unbounded event storm exhausts the budget instead of
	// spinning forever; the run degrades to an error-carrying Result
	// (Result.Hung) and the campaign moves on.
	StepBudget uint64
}

// DefaultWorkload returns the Figure-2/3 workload: 4 replicas (f=1),
// sub-millisecond LAN, compressed timers, 2-second measurement window.
func DefaultWorkload() Workload {
	cfg := pbft.DefaultConfig()
	cfg.ViewChangeTimeout = 500 * time.Millisecond
	cfg.NewViewTimeout = 250 * time.Millisecond
	return Workload{
		PBFT:    cfg,
		Net:     simnet.Config{BaseLatency: 500 * time.Microsecond},
		Seed:    1,
		Warmup:  300 * time.Millisecond,
		Measure: 2 * time.Second,
		Correct: pbft.ClientConfig{
			Retry:    50 * time.Millisecond,
			RetryCap: 400 * time.Millisecond,
		},
		Malicious: pbft.ClientConfig{
			Retry:    40 * time.Millisecond,
			RetryCap: 80 * time.Millisecond,
		},
		MaskBits:             plugin.MACMaskBits,
		CrashOnBadReproposal: true,
		LatencyRef:           time.Second,
	}
}

// Report carries the detailed outcome of one test beyond the core.Result
// impact summary.
type Report struct {
	CorrectCompleted   uint64
	MaliciousCompleted uint64
	Retransmissions    uint64
	ViewsInstalled     uint64
	TimerViewChanges   uint64
	RejectedBatches    uint64
	RejectedRequests   uint64
	StateTransfers     uint64
	Crashes            uint64 // injected crash-restart faults
	Restarts           uint64 // injected restarts
	CrashedReplicas    []int
	CrashReasons       []string
	FinalViews         []uint64
	P99Latency         time.Duration
}

// Runner is the PBFT system under test: the generic core.Harness over
// PBFT deployments, one warm master per (correct, malicious) client
// population. It executes scenarios against a fixed workload, is a
// core.Target, and is safe for concurrent use by parallel sweeps and
// campaign workers.
type Runner struct {
	*core.Harness[masterKey, *deployment, Report]
	w Workload
}

var (
	_ core.Target            = (*Runner)(nil)
	_ core.WorkerSnapshotter = (*Runner)(nil)
	_ core.Preparer          = (*Runner)(nil)
	_ core.Warmer            = (*Runner)(nil)
)

// masterKey is the structural identity of a deployment: everything that
// shapes the warmup. Fault parameters are not part of it — they arm at
// measurement start.
type masterKey struct{ correct, malicious int64 }

// populationOf is the client population a scenario deploys. The
// malicious population is topology, not behavior: baseline runs deploy
// the same clients and simply never arm their corruption plans, so one
// master per population serves attack forks and baseline forks alike.
func populationOf(sc scenario.Scenario) masterKey {
	return masterKey{
		correct:   sc.GetOr(plugin.DimCorrectClients, 10),
		malicious: sc.GetOr(plugin.DimMaliciousClients, 1),
	}
}

// NewRunner returns a runner for the workload with the default plugins.
func NewRunner(w Workload) (*Runner, error) { return NewTarget(w) }

// DefaultPlugins returns the paper's PBFT hyperspace: the 12-bit
// Gray-coded MAC-corruption mask composed with the client-population
// dimensions.
func DefaultPlugins() []core.Plugin {
	return []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
}

// NewTarget builds the PBFT system under test for a workload. With no
// explicit plugins it exposes DefaultPlugins' hyperspace; pass plugins to
// widen or narrow the attack surface (e.g. adding plugin.NewReorder or
// plugin.NewSlowPrimary).
func NewTarget(w Workload, plugins ...core.Plugin) (*Runner, error) {
	if err := w.PBFT.Validate(); err != nil {
		return nil, err
	}
	if w.Measure <= 0 {
		return nil, fmt.Errorf("cluster: measurement window must be positive")
	}
	if w.MaskBits == 0 || w.MaskBits > 32 {
		return nil, fmt.Errorf("cluster: mask bits %d out of range [1,32]", w.MaskBits)
	}
	if len(plugins) == 0 {
		plugins = DefaultPlugins()
	}
	r := &Runner{w: w}
	r.Harness = core.NewHarness[masterKey, *deployment, Report](core.HarnessSpec[masterKey, *deployment]{
		Name:       "pbft",
		Plugins:    plugins,
		Config:     w,
		ClientsDim: plugin.DimCorrectClients,
		Key:        populationOf,
		Build:      r.newDeployment,
		Measure:    w.Measure,
		StepBudget: w.StepBudget,
		LatencyRef: w.LatencyRef,
	})
	return r, nil
}

// Workload returns the runner's workload.
func (r *Runner) Workload() Workload { return r.w }

// dropWindow drops sends from one address for call numbers in
// [start, start+length) — the FaultPlan plugin's network fault.
type dropWindow struct {
	from   simnet.Addr
	start  uint64
	length uint64
	calls  uint64
}

func newDropWindow(from simnet.Addr, start, length uint64) *dropWindow {
	return &dropWindow{from: from, start: start, length: length}
}

var _ simnet.Interceptor = (*dropWindow)(nil)

// Intercept implements simnet.Interceptor.
func (d *dropWindow) Intercept(m *simnet.Message) simnet.Verdict {
	if m.From != d.from {
		return simnet.VerdictDeliver
	}
	call := d.calls
	d.calls++
	if call >= d.start && call < d.start+d.length {
		return simnet.VerdictDrop
	}
	return simnet.VerdictDeliver
}
