package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"avd/internal/scenario"
)

// Target is a system under test. The paper's controller is explicitly
// system-agnostic — Algorithm 1 never looks inside the victim — and
// Target is that seam made concrete: a deployment harness that executes
// scenarios (Runner), identifies itself, and declares the testing-tool
// plugins (fault-injection hooks) that apply to it. One search engine
// drives any number of systems through this interface; internal/cluster
// (PBFT) and internal/raftsim (Raft) are the two shipped implementations.
//
// A Target's Run must be safe for concurrent use (parallel engines
// execute batches of scenarios simultaneously) and deterministic: the
// same scenario must always produce the same Result.
type Target interface {
	Runner
	// Name identifies the system under test in reports and benchmarks.
	Name() string
	// Plugins returns the target's testing-tool plugins; their composed
	// dimensions form the hyperspace a campaign's explorer searches.
	Plugins() []Plugin
}

// Checkpoint is a campaign's durable progress: the executed results in
// dispatch order. Because every Explorer is a deterministic function of
// its seed and its feedback sequence, replaying a checkpoint through a
// fresh explorer — proposal by proposal, result by result — rebuilds the
// explorer's exact internal state without any explorer-specific
// serialization. An Engine configured with WithCheckpoint appends each
// executed result and, on RunAll, replays whatever the checkpoint already
// holds before executing new tests, so an interrupted campaign resumed
// from its checkpoint is bit-for-bit identical to an uninterrupted one.
//
// Checkpoint is safe for concurrent use.
type Checkpoint struct {
	mu      sync.Mutex
	results []Result
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint { return &Checkpoint{} }

// Len returns the number of executed results recorded so far.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// Results returns a copy of the recorded results in dispatch order.
func (c *Checkpoint) Results() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]Result, len(c.results))
	copy(cp, c.results)
	return cp
}

func (c *Checkpoint) append(r Result) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

// appendBatch records a whole executed batch under one lock: results and
// their violations reach the checkpoint as a unit, which is both cheaper
// and what replay expects (batch-aligned progress).
func (c *Checkpoint) appendBatch(rs []Result) {
	c.mu.Lock()
	c.results = append(c.results, rs...)
	c.mu.Unlock()
}

func (c *Checkpoint) snapshot() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results[:len(c.results):len(c.results)]
}

// EngineOption configures an Engine at construction.
type EngineOption func(*engineConfig)

type engineConfig struct {
	workers    int
	budget     int
	explorer   Explorer
	observer   CampaignObserver
	checkpoint *Checkpoint
	sink       func([]Result) error
}

// WithWorkers sets the feedback batch: how many tests the explorer
// proposes before it hears their results, the one parallelism parameter
// results depend on. A campaign is a function of (seed, workers) and
// workers=1 is the serial campaign; up to GOMAXPROCS tests of a batch run
// at once. Values <= 0 are treated as 1.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithBudget caps the number of executed tests (replayed checkpoint
// results count toward it). The default is 125, the paper's Figure-2
// campaign size.
func WithBudget(n int) EngineOption {
	return func(c *engineConfig) { c.budget = n }
}

// WithExplorer drives the campaign with ex (a Controller, RandomExplorer
// or ExhaustiveExplorer). An engine needs one.
func WithExplorer(ex Explorer) EngineOption {
	return func(c *engineConfig) { c.explorer = ex }
}

// WithObserver registers a per-test callback, invoked in dispatch order
// on the goroutine that called RunAll, with the 1-based iteration
// (counting replayed checkpoint results). Replayed results are not
// re-observed.
func WithObserver(obs CampaignObserver) EngineOption {
	return func(c *engineConfig) { c.observer = obs }
}

// WithCheckpoint attaches a checkpoint: results already in it are
// replayed into the explorer before new tests run, and every newly
// executed result is appended to it, enabling resumption after a
// cancellation or crash of the coordinating process. A resumed engine
// must use the same explorer configuration (seed) and batch (workers) as
// the run that filled the checkpoint; the replay verifies every
// proposal against the saved sequence and fails loudly on divergence.
func WithCheckpoint(ck *Checkpoint) EngineOption {
	return func(c *engineConfig) { c.checkpoint = ck }
}

// WithCheckpointSink registers a durability hook called with each newly
// executed batch right after it reaches the in-memory checkpoint and
// before its results are fed back or returned. A sink that returns an
// error stops the campaign — an engine that promised durability must not
// keep executing tests it can no longer make durable. Replayed results
// never reach the sink (they are already durable).
func WithCheckpointSink(sink func([]Result) error) EngineOption {
	return func(c *engineConfig) { c.sink = sink }
}

// WithDurable wires a DurableCheckpoint as both the engine's checkpoint
// (replaying whatever it recovered) and its durability sink (journaling
// each executed batch before the campaign moves on).
func WithDurable(d *DurableCheckpoint) EngineOption {
	return func(c *engineConfig) {
		c.checkpoint = d.Checkpoint()
		c.sink = d.Append
	}
}

// Engine is the protocol-agnostic campaign driver and the one campaign
// loop: the paper's worker loop (take a scenario from Ψ, run it, score
// it, feed the result back), a batch at a time. It connects one Explorer
// to one Target and owns the scheduling — a bounded pool, dispatch-order
// feedback, context cancellation, checkpoint/resume — behind one
// construction path:
//
//	eng, _ := core.NewEngine(target, core.WithExplorer(ctrl), core.WithBudget(125))
//	results, err := eng.RunAll(ctx)
//
// An Engine runs one campaign: RunAll may be called once.
type Engine struct {
	target Target
	cfg    engineConfig

	mu      sync.Mutex
	started bool
	err     error
}

// NewEngine builds an engine over the target, applying options; one of
// them must be WithExplorer.
func NewEngine(target Target, opts ...EngineOption) (*Engine, error) {
	if target == nil {
		return nil, fmt.Errorf("core: engine needs a target")
	}
	cfg := engineConfig{workers: 1, budget: 125}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.budget < 1 {
		return nil, fmt.Errorf("core: engine budget %d must be positive", cfg.budget)
	}
	if cfg.explorer == nil {
		return nil, fmt.Errorf("core: engine needs an explorer (WithExplorer)")
	}
	return &Engine{target: target, cfg: cfg}, nil
}

// RunAll drives the campaign on the calling goroutine and returns the
// newly executed results in dispatch order plus why the campaign ended:
// nil on natural completion (budget exhausted or explorer drained), the
// context's error on cancellation, or a replay error when the attached
// checkpoint does not match the explorer's deterministic proposal
// sequence. On cancellation the batch in flight finishes executing, and
// reaches the checkpoint and the returned results alike, but the engine
// dispatches no further tests.
//
// RunAll may be called once per Engine; later calls execute nothing and
// return the first campaign's error.
func (e *Engine) RunAll(ctx context.Context) ([]Result, error) {
	e.mu.Lock()
	if e.started {
		err := e.err
		e.mu.Unlock()
		return nil, err
	}
	e.started = true
	e.mu.Unlock()
	results, err := e.drive(ctx)
	e.mu.Lock()
	e.err = err
	e.mu.Unlock()
	return results, err
}

// safeRun executes one test, converting a panic inside the target into
// an error-carrying Result instead of tearing down the campaign: the
// poisoned scenario degrades to Result.Error (with the panic value and
// stack) while the results, the checkpoint, and the explorer's feedback
// sequence continue undisturbed. A panicked run keeps its scenario so
// checkpoint replay still verifies the proposal sequence.
func safeRun(target Runner, sc scenario.Scenario) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Scenario: sc,
				Error:    fmt.Sprintf("core: target panicked running %s: %v\n%s", sc.Key(), r, debug.Stack()),
			}
		}
	}()
	return target.Run(sc)
}

// drive executes the campaign and returns its newly executed results
// in dispatch order with the reason it ended.
func (e *Engine) drive(ctx context.Context) ([]Result, error) {

	// The replay prefix: results a previous (interrupted) campaign
	// already executed. Replay flows through the same batches as live
	// execution, since proposals depend on when feedback arrives, so a
	// resume needs the checkpointed run's (seed, workers) pair; a
	// mismatch is detected and reported.
	var replay []Result
	if e.cfg.checkpoint != nil {
		replay = e.cfg.checkpoint.snapshot()
	}

	// Pipelined prefetch (DESIGN.md §14): a Preparer target gets its
	// per-population masters and baselines built concurrently with the
	// batch's measurements. Prepare is result-neutral by contract.
	preparer, _ := e.target.(Preparer)
	var prepWG sync.WaitGroup
	defer prepWG.Wait()
	workers := min(e.cfg.workers, e.cfg.budget)
	executed := 0
	var out []Result
	batch := make([]scenario.Scenario, 0, workers)
	generators := make([]string, 0, workers)
	results := make([]Result, workers)

	for executed < e.cfg.budget {
		if executed >= len(replay) && ctx.Err() != nil {
			return out, ctx.Err()
		}
		batch, generators = batch[:0], generators[:0]
		for len(batch) < workers && executed+len(batch) < e.cfg.budget {
			sc, generator, ok := e.cfg.explorer.Next()
			if !ok {
				break
			}
			batch = append(batch, sc)
			generators = append(generators, generator)
		}
		if len(batch) == 0 {
			if executed < len(replay) {
				return out, fmt.Errorf("core: checkpoint replay: explorer exhausted after %d of %d saved results", executed, len(replay))
			}
			return out, nil
		}
		// Split the batch into the replayed prefix (results come from the
		// checkpoint) and the live tail (results come from the target).
		replayed := min(max(len(replay)-executed, 0), len(batch))
		for i := 0; i < replayed; i++ {
			saved := replay[executed+i]
			if batch[i].Compact() != saved.Scenario.Compact() {
				return out, fmt.Errorf("core: checkpoint replay diverged at result %d: explorer proposed %s, checkpoint holds %s (explorer config, seed or workers differ from the checkpointed run)",
					executed+i+1, batch[i].Key(), saved.Scenario.Key())
			}
		}
		live := batch[replayed:]
		if preparer != nil && workers > 1 {
			// Fire-and-forget: the pool starts measuring immediately while
			// the populations they need next warm up behind them.
			// Baselines singleflight; masters prepared here serve
			// checkouts from this batch's tail and every later batch (an
			// Acquire never stalls on a prefetch — on a cold cache it
			// builds its own).
			for _, sc := range live {
				prepWG.Add(1)
				//avdlint:allow prefetch pool: Prepare is observably idempotent (memoized masters and baselines)
				go func(sc scenario.Scenario) {
					defer prepWG.Done()
					// A panicking prefetch must not take the process
					// down: the run that needs the master or the baseline
					// hits the same panic under safeRun and records it (a
					// baseline that panicked is not memoized).
					defer func() { _ = recover() }()
					preparer.Prepare(sc)
				}(sc)
			}
		}
		// One bounded pool: this goroutine and up to GOMAXPROCS-1 others
		// take tests from a shared counter, each result to its own slot,
		// so the machine sets the concurrency and the batch sets results.
		var next atomic.Int64
		run := func() {
			for i := int(next.Add(1) - 1); i < len(live); i = int(next.Add(1) - 1) {
				results[replayed+i] = safeRun(e.target, live[i])
			}
		}
		var wg sync.WaitGroup
		for range min(len(live), runtime.GOMAXPROCS(0)) - 1 {
			wg.Add(1)
			//avdlint:allow campaign worker pool: tests are independent and each owns a private cluster
			go func() { defer wg.Done(); run() }()
		}
		run()
		wg.Wait()
		// Results and their violations are delivered in batch: one
		// checkpoint lock per batch, then the in-order feedback loop.
		fresh := results[replayed : replayed+len(live)]
		for i := range fresh {
			fresh[i].Generator = generators[replayed+i]
		}
		if e.cfg.checkpoint != nil && len(fresh) > 0 {
			e.cfg.checkpoint.appendBatch(fresh)
		}
		if e.cfg.sink != nil && len(fresh) > 0 {
			if err := e.cfg.sink(fresh); err != nil {
				return out, fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
		for i := range batch {
			res := results[i]
			if i < replayed {
				res = replay[executed]
			}
			e.cfg.explorer.Record(res)
			executed++
			if i < replayed {
				continue // already checkpointed, observed and returned
			}
			if e.cfg.observer != nil {
				e.cfg.observer(executed, res)
			}
			out = append(out, res)
		}
	}
	return out, nil
}
