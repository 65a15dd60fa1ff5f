package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

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
	// Plugins returns the target's default testing-tool plugins; their
	// composed dimensions form the default hyperspace an Engine explores
	// when no explicit explorer is configured.
	Plugins() []Plugin
}

// Checkpoint is a campaign's durable progress: the executed results in
// dispatch order. Because every Explorer is a deterministic function of
// its seed and its feedback sequence, replaying a checkpoint through a
// fresh explorer — proposal by proposal, result by result — rebuilds the
// explorer's exact internal state without any explorer-specific
// serialization. An Engine configured with WithCheckpoint appends each
// executed result and, on Run, replays whatever the checkpoint already
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
	seed       int64
	budget     int
	explorer   Explorer
	observer   CampaignObserver
	checkpoint *Checkpoint
	sink       func([]Result) error
}

// WithWorkers sets the number of concurrent test-execution workers.
// Results and explorer feedback stay in dispatch order, so a fixed
// (seed, workers) pair is deterministic and workers=1 reproduces the
// serial campaign exactly. Values <= 0 are treated as 1.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithSeed sets the seed of the engine's default explorer (the AVD
// Controller over the target's plugins). It has no effect when
// WithExplorer supplies an explorer, which carries its own seed.
func WithSeed(seed int64) EngineOption {
	return func(c *engineConfig) { c.seed = seed }
}

// WithBudget caps the number of executed tests (replayed checkpoint
// results count toward it). The default is 125, the paper's Figure-2
// campaign size.
func WithBudget(n int) EngineOption {
	return func(c *engineConfig) { c.budget = n }
}

// WithExplorer drives the campaign with an explicit explorer (a
// Controller, Genetic, RandomExplorer, ExhaustiveExplorer, ...) instead
// of the default Controller built over the target's plugins.
func WithExplorer(ex Explorer) EngineOption {
	return func(c *engineConfig) { c.explorer = ex }
}

// WithObserver registers a per-test callback, invoked in dispatch order
// from the engine's coordinator goroutine with the 1-based iteration
// (counting replayed checkpoint results). Replayed results are not
// re-observed.
func WithObserver(obs CampaignObserver) EngineOption {
	return func(c *engineConfig) { c.observer = obs }
}

// WithCheckpoint attaches a checkpoint: results already in it are
// replayed into the explorer before new tests run, and every newly
// executed result is appended to it, enabling resumption after a
// cancellation or crash of the coordinating process. A resumed engine
// must use the same explorer configuration (seed) and worker count as
// the run that filled the checkpoint; the replay verifies every
// proposal against the saved sequence and fails loudly on divergence.
func WithCheckpoint(ck *Checkpoint) EngineOption {
	return func(c *engineConfig) { c.checkpoint = ck }
}

// WithCheckpointSink registers a durability hook called with each newly
// executed batch right after it reaches the in-memory checkpoint and
// before its results are fed back or emitted. A sink that returns an
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
// it, feed the result back), run by one or more workers. It connects one
// Explorer to one Target and streams executed Results as they complete,
// owning the scheduling — serial or parallel workers, dispatch-order
// feedback, context cancellation, checkpoint/resume — behind one
// construction path:
//
//	eng, _ := core.NewEngine(target, core.WithSeed(1), core.WithBudget(125))
//	for res := range eng.Run(ctx) {
//	    ...
//	}
//
// An Engine runs one campaign: Run may be called once.
type Engine struct {
	target Target
	cfg    engineConfig
	ex     Explorer

	mu      sync.Mutex
	started bool
	err     error
}

// NewEngine builds an engine over the target, applying options. Without
// WithExplorer, the engine constructs the paper's Controller over the
// target's plugins, seeded by WithSeed.
func NewEngine(target Target, opts ...EngineOption) (*Engine, error) {
	if target == nil {
		return nil, fmt.Errorf("core: engine needs a target")
	}
	cfg := engineConfig{workers: 1, seed: 1, budget: 125}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.budget < 1 {
		return nil, fmt.Errorf("core: engine budget %d must be positive", cfg.budget)
	}
	ex := cfg.explorer
	if ex == nil {
		ctrl, err := NewController(ControllerConfig{Seed: cfg.seed}, target.Plugins()...)
		if err != nil {
			return nil, fmt.Errorf("core: engine default explorer: %w", err)
		}
		ex = ctrl
	}
	return &Engine{target: target, cfg: cfg, ex: ex}, nil
}

// Target returns the system under test.
func (e *Engine) Target() Target { return e.target }

// Explorer returns the explorer driving the campaign.
func (e *Engine) Explorer() Explorer { return e.ex }

// Err reports why the campaign ended, once the Run channel has closed:
// nil on natural completion (budget exhausted or explorer drained), the
// context's error on cancellation, or a replay error when the attached
// checkpoint does not match the explorer's deterministic proposal
// sequence.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func (e *Engine) setErr(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// Run starts the campaign and returns a channel on which every newly
// executed Result is streamed in dispatch order. The channel is closed
// when the budget is exhausted, the explorer runs out of proposals, or
// ctx is canceled; Err explains which once the channel closes. On
// cancellation the batch in flight finishes executing (and reaches the
// checkpoint) but the engine dispatches no further tests, so callers get
// their partial results promptly.
//
// Run may be called once per Engine; later calls return an
// already-closed channel and leave the first campaign (and its Err)
// untouched.
func (e *Engine) Run(ctx context.Context) <-chan Result {
	out := make(chan Result, e.cfg.workers)
	if !e.begin() {
		close(out)
		return out
	}
	//avdlint:allow result pump: forwards finished Results to the caller; simulation state stays on the workers
	go func() {
		defer close(out)
		e.drive(ctx, func(res Result) bool {
			select {
			case out <- res:
				return true
			case <-ctx.Done():
				// The consumer is gone; the driver keeps feeding the
				// explorer and the checkpoint so a resumed campaign sees
				// a complete batch, but stops emitting.
				e.setErr(ctx.Err())
				return false
			}
		})
	}()
	return out
}

// RunAll drives the campaign to completion and returns the collected new
// results plus the campaign's terminal error (nil, cancellation, or
// replay mismatch). On cancellation the partial results are still
// returned.
//
// With a single worker RunAll runs the whole campaign inline on the
// calling goroutine — no coordinator goroutine, no channel hop per
// result — so workers=1 costs exactly what the serial campaign costs.
func (e *Engine) RunAll(ctx context.Context) ([]Result, error) {
	if e.cfg.workers == 1 {
		if !e.begin() {
			return nil, e.Err()
		}
		var results []Result
		e.drive(ctx, func(res Result) bool {
			results = append(results, res)
			return true
		})
		return results, e.Err()
	}
	var results []Result
	for res := range e.Run(ctx) {
		results = append(results, res)
	}
	return results, e.Err()
}

// begin claims the engine's single campaign; false when already run.
func (e *Engine) begin() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return false
	}
	e.started = true
	return true
}

// safeRun executes one test, converting a panic inside the target into
// an error-carrying Result instead of tearing down the campaign: the
// poisoned scenario degrades to Result.Error (with the panic value and
// stack) while the stream, the checkpoint, and the explorer's feedback
// sequence continue undisturbed. A panicked run keeps its scenario so
// checkpoint replay still verifies the proposal sequence.
func safeRun(run func(scenario.Scenario) Result, sc scenario.Scenario) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Scenario: sc,
				Error:    fmt.Sprintf("core: target panicked running %s: %v\n%s", sc.Key(), r, debug.Stack()),
			}
		}
	}()
	return run(sc)
}

// drive executes the campaign, handing each newly executed result to
// emit in dispatch order. emit returns false to stop emitting (the
// in-flight batch still finishes its bookkeeping).
func (e *Engine) drive(ctx context.Context, emit func(Result) bool) {

	// The replay prefix: results a previous (interrupted) campaign
	// already executed. Replay must flow through the very same batch
	// structure as live execution — the explorer's proposals depend on
	// when feedback arrives, so recording saved results one-by-one would
	// diverge from a run that recorded them a batch at a time. Resuming
	// therefore requires the same (explorer seed, workers) pair as the
	// checkpointed run; a mismatch is detected and reported.
	var replay []Result
	if e.cfg.checkpoint != nil {
		replay = e.cfg.checkpoint.snapshot()
	}

	warmer, _ := e.target.(Warmer)
	// Snapshot/fork execution: when the target declares the capability,
	// every test forks from a warm per-population snapshot instead of
	// cold-building the deployment (identical results, enforced by test).
	runFn := e.target.Run
	if s, ok := e.target.(Snapshotter); ok {
		runFn = s.RunFork
	}
	// Pipelined prefetch (DESIGN.md §8): a Preparer target gets its
	// per-population masters and baselines built concurrently with the
	// batch's measurements instead of serially ahead of them. Prepare is
	// result-neutral by contract, so the pipeline preserves bit-for-bit
	// determinism per (seed, workers).
	preparer, _ := e.target.(Preparer)
	var prepWG sync.WaitGroup
	defer prepWG.Wait()
	workers := e.cfg.workers
	if workers > e.cfg.budget {
		workers = e.cfg.budget
	}
	executed := 0
	batch := make([]scenario.Scenario, 0, workers)
	generators := make([]string, 0, workers)
	results := make([]Result, workers)

	for executed < e.cfg.budget {
		if executed >= len(replay) && ctx.Err() != nil {
			e.setErr(ctx.Err())
			return
		}
		batch, generators = batch[:0], generators[:0]
		for len(batch) < workers && executed+len(batch) < e.cfg.budget {
			sc, generator, ok := e.ex.Next()
			if !ok {
				break
			}
			batch = append(batch, sc)
			generators = append(generators, generator)
		}
		if len(batch) == 0 {
			if executed < len(replay) {
				e.setErr(fmt.Errorf("core: checkpoint replay: explorer exhausted after %d of %d saved results", executed, len(replay)))
			}
			return
		}
		// Split the batch into the replayed prefix (results come from the
		// checkpoint) and the live tail (results come from the target).
		replayed := len(replay) - executed
		if replayed < 0 {
			replayed = 0
		}
		if replayed > len(batch) {
			replayed = len(batch)
		}
		for i := 0; i < replayed; i++ {
			saved := replay[executed+i]
			if batch[i].Compact() != saved.Scenario.Compact() {
				e.setErr(fmt.Errorf("core: checkpoint replay diverged at result %d: explorer proposed %s, checkpoint holds %s (explorer config, seed or workers differ from the checkpointed run)",
					executed+i+1, batch[i].Key(), saved.Scenario.Key()))
				return
			}
		}
		live := batch[replayed:]
		if len(live) > 0 && workers > 1 {
			if preparer != nil {
				// Fire-and-forget: workers start measuring immediately
				// while the populations they need next warm up behind
				// them. Baselines singleflight; masters prepared here
				// serve checkouts from this batch's tail and every later
				// batch (an Acquire never stalls on a prefetch — on a
				// cold cache it builds its own).
				for _, sc := range live {
					prepWG.Add(1)
					//avdlint:allow prefetch pool: Prepare is observably idempotent (memoized masters and baselines)
					go func(sc scenario.Scenario) {
						defer prepWG.Done()
						// A panicking prefetch must not take the process
						// down: the run that needs the master hits the
						// same panic under safeRun and records it.
						defer func() { _ = recover() }()
						preparer.Prepare(sc)
					}(sc)
				}
			} else if warmer != nil {
				warmer.Warm(live)
			}
		}
		if len(live) == 1 {
			results[replayed] = safeRun(runFn, live[0])
		} else if len(live) > 1 {
			var wg sync.WaitGroup
			for i := range live {
				wg.Add(1)
				//avdlint:allow campaign worker pool: tests are independent and each owns a private cluster
				go func(i int) {
					defer wg.Done()
					results[replayed+i] = safeRun(runFn, live[i])
				}(i)
			}
			wg.Wait()
		}
		// Results and their violations are delivered in batch: one
		// checkpoint lock per batch, then the in-order feedback/emit
		// loop.
		for i := range live {
			results[replayed+i].Generator = generators[replayed+i]
		}
		if e.cfg.checkpoint != nil && len(live) > 0 {
			e.cfg.checkpoint.appendBatch(results[replayed : replayed+len(live)])
		}
		if e.cfg.sink != nil && len(live) > 0 {
			if err := e.cfg.sink(results[replayed : replayed+len(live)]); err != nil {
				e.setErr(fmt.Errorf("core: checkpoint sink: %w", err))
				return
			}
		}
		canceled := false
		for i := range batch {
			var res Result
			if i < replayed {
				res = replay[executed]
			} else {
				res = results[i]
			}
			e.ex.Record(res)
			executed++
			if i < replayed {
				continue // already checkpointed, observed and consumed
			}
			if e.cfg.observer != nil {
				e.cfg.observer(executed, res)
			}
			if canceled {
				continue // keep bookkeeping consistent, stop emitting
			}
			if !emit(res) {
				canceled = true
			}
		}
		if canceled {
			return
		}
	}
}
