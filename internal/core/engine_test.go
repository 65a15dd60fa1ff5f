package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"avd/internal/scenario"
)

// fakeTarget adapts the deterministic pureRunner grid to the Target
// seam.
type fakeTarget struct {
	Runner
	plugins []Plugin
}

func (t fakeTarget) Name() string      { return "fake" }
func (t fakeTarget) Plugins() []Plugin { return t.plugins }

func newFakeTarget() Target {
	return fakeTarget{Runner: pureRunner(), plugins: twoDimPlugins()}
}

// serialLoop is the paper's worker loop written out (Algorithm 1): take a
// scenario from Ψ, run it, feed the result back, until the budget is spent
// or the explorer runs dry. It is the reference the Engine's single-worker
// path must reproduce exactly.
func serialLoop(ex Explorer, runner Runner, budget int) []Result {
	var results []Result
	for len(results) < budget {
		sc, generator, ok := ex.Next()
		if !ok {
			break
		}
		res := runner.Run(sc)
		res.Generator = generator
		ex.Record(res)
		results = append(results, res)
	}
	return results
}

// runEngine runs a campaign of ex against runner on an Engine with the
// given workers and returns its results.
func runEngine(tb testing.TB, ex Explorer, runner Runner, budget, workers int) []Result {
	tb.Helper()
	eng, err := NewEngine(fakeTarget{Runner: runner},
		WithExplorer(ex), WithBudget(budget), WithWorkers(workers))
	if err != nil {
		tb.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

func newEngineController(t *testing.T, seed int64) Explorer {
	t.Helper()
	c, err := NewController(ControllerConfig{Seed: seed, SeedTests: 6}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineWorkers1MatchesCampaign: the engine's serial path must
// reproduce the paper's serial loop bit-for-bit — results, generators,
// impacts and explorer feedback sequence, archive proposals included.
func TestEngineWorkers1MatchesCampaign(t *testing.T) {
	want := serialLoop(newEngineController(t, 42), pureRunner(), 80)
	if archiveTurns(want) == 0 {
		t.Fatal("the novelty archive proposed nothing")
	}

	eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 42)), WithBudget(80), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, runErr := eng.RunAll(context.Background())
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(results) != len(want) {
		t.Fatalf("engine ran %d tests, the serial loop ran %d", len(results), len(want))
	}
	a, b := campaignFingerprint(want), campaignFingerprint(results)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engine workers=1 diverged from the serial loop at %d: %s vs %s", i, a[i], b[i])
		}
	}
	for i := range want {
		if want[i].Impact != results[i].Impact {
			t.Fatalf("engine workers=1 impact diverged at %d", i)
		}
	}
}

// TestEngineParallelDeterministic: a fixed (seed, workers) pair must
// reproduce itself, however the batch's goroutines interleave.
func TestEngineParallelDeterministic(t *testing.T) {
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		run := func() []string {
			return campaignFingerprint(runEngine(t, newEngineController(t, 7), pureRunner(), 60, workers))
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d nondeterministic at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
	}
}

// TestEngineCancellation: canceling mid-campaign returns the results
// executed so far with context.Canceled: the batch in flight finishes,
// and no further batch is dispatched. The count of target calls proves
// promptness without a clock.
func TestEngineCancellation(t *testing.T) {
	const workers = 4
	var executed atomic.Int64
	counted := RunnerFunc(func(sc scenario.Scenario) Result {
		executed.Add(1)
		return pureRunner().Run(sc)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng, err := NewEngine(fakeTarget{Runner: counted, plugins: twoDimPlugins()},
		WithExplorer(newEngineController(t, 11)), WithBudget(10_000), WithWorkers(workers),
		WithObserver(func(i int, _ Result) {
			if i == 2*workers-1 { // inside the second batch
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := eng.RunAll(ctx)
	if err != context.Canceled {
		t.Fatalf("RunAll error = %v, want context.Canceled", err)
	}
	if len(partial) != 2*workers {
		t.Fatalf("got %d partial results, want the %d of the two batches dispatched", len(partial), 2*workers)
	}
	if n := executed.Load(); n != 2*workers {
		t.Fatalf("engine executed %d tests after cancellation in the second batch of %d", n, workers)
	}
}

// TestRunAllCancelKeepsExecutedResults: a parallel campaign canceled from
// its observer returns every result it executed, the ones its checkpoint
// holds, whatever the seed.
func TestRunAllCancelKeepsExecutedResults(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ck := NewCheckpoint()
		ctx, cancel := context.WithCancel(context.Background())
		eng, err := NewEngine(newFakeTarget(),
			WithExplorer(newEngineController(t, seed)), WithBudget(200), WithWorkers(8), WithCheckpoint(ck),
			WithObserver(func(i int, _ Result) {
				if i == 3 {
					cancel()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(ctx)
		cancel()
		if err != context.Canceled {
			t.Fatalf("seed %d: RunAll error = %v, want context.Canceled", seed, err)
		}
		if len(results) != ck.Len() {
			t.Errorf("seed %d: RunAll returned %d results, its checkpoint holds %d", seed, len(results), ck.Len())
		}
	}
}

// TestEngineCheckpointResume: a campaign canceled partway and resumed
// from its checkpoint must reproduce the uninterrupted campaign
// bit-for-bit.
func TestEngineCheckpointResume(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const budget = 60
		uninterrupted, err := func() ([]Result, error) {
			eng, err := NewEngine(newFakeTarget(),
				WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers))
			if err != nil {
				return nil, err
			}
			return eng.RunAll(context.Background())
		}()
		if err != nil {
			t.Fatal(err)
		}

		ck := NewCheckpoint()
		ctx, cancel := context.WithCancel(context.Background())
		eng1, err := NewEngine(newFakeTarget(),
			WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers), WithCheckpoint(ck),
			WithObserver(func(i int, _ Result) {
				if i == 25 {
					cancel()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng1.RunAll(ctx)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d interrupted run error = %v", workers, err)
		}
		done := ck.Len()
		if done < 25 || done >= budget {
			t.Fatalf("workers=%d checkpoint holds %d results after cancel at 25", workers, done)
		}

		// Resume: fresh engine, fresh explorer with the same seed, same
		// checkpoint.
		eng2, err := NewEngine(newFakeTarget(),
			WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers), WithCheckpoint(ck))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := eng2.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done+len(resumed) != budget {
			t.Fatalf("workers=%d resume ran %d new tests on top of %d; want total %d", workers, len(resumed), done, budget)
		}
		full := ck.Results()
		if len(full) != len(uninterrupted) {
			t.Fatalf("workers=%d resumed campaign has %d results, uninterrupted %d", workers, len(full), len(uninterrupted))
		}
		a, b := campaignFingerprint(uninterrupted), campaignFingerprint(full)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d resume diverged at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
		for i := range full {
			if full[i].Impact != uninterrupted[i].Impact {
				t.Fatalf("workers=%d impact diverged at %d", workers, i)
			}
		}
	}
}

// TestEngineCheckpointMismatch: resuming a checkpoint with a differently
// seeded explorer must fail loudly instead of silently corrupting the
// campaign.
func TestEngineCheckpointMismatch(t *testing.T) {
	ck := NewCheckpoint()
	eng1, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 1)), WithBudget(20), WithCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng1.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 999)), WithBudget(40), WithCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunAll(context.Background()); err == nil {
		t.Fatal("replaying a foreign checkpoint did not error")
	}
}

// TestEngineRequiresExplorer: there is no default explorer; an engine
// without WithExplorer is refused.
func TestEngineRequiresExplorer(t *testing.T) {
	if _, err := NewEngine(newFakeTarget(), WithBudget(30)); err == nil {
		t.Fatal("NewEngine without WithExplorer succeeded")
	}
}

// TestEngineObserverOrder: the observer sees every executed test with
// consecutive 1-based iterations, in dispatch order.
func TestEngineObserverOrder(t *testing.T) {
	var iters []int
	eng, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 13)), WithBudget(24), WithWorkers(4),
		WithObserver(func(i int, _ Result) { iters = append(iters, i) }))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != len(results) {
		t.Fatalf("observer saw %d of %d tests", len(iters), len(results))
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("observer iterations out of order: %v", iters)
		}
	}
}

// TestEngineSingleUse: a second RunAll executes nothing and returns the
// completed first campaign's error.
func TestEngineSingleUse(t *testing.T) {
	var executed atomic.Int64
	counted := RunnerFunc(func(sc scenario.Scenario) Result {
		executed.Add(1)
		return pureRunner().Run(sc)
	})
	eng, err := NewEngine(fakeTarget{Runner: counted}, WithExplorer(newEngineController(t, 2)), WithBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	again, err := eng.RunAll(context.Background())
	if len(again) != 0 || executed.Load() != 5 {
		t.Fatalf("reused engine ran the campaign again: %d results, %d executions", len(again), executed.Load())
	}
	if err != nil {
		t.Fatalf("reuse poisoned the completed campaign's error: %v", err)
	}
}

// TestEngineExhaustedExplorer: the campaign ends cleanly when the explorer
// drains before the budget.
func TestEngineExhaustedExplorer(t *testing.T) {
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 9, Step: 1})
	eng, err := NewEngine(newFakeTarget(), WithExplorer(NewExhaustiveExplorer(space)), WithBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("exhaustive 10-point space yielded %d results", len(results))
	}
}

// poisonedPrepTarget is a forking Preparer whose master build
// panics for one population (x%5 == 3): the prefetch goroutine hits the
// panic first, the run that needs the master hits it again.
type poisonedPrepTarget struct {
	fakeTarget
	masters ForkCache[int64, *int64]
}

func (t *poisonedPrepTarget) build(key int64) func() *int64 {
	return func() *int64 {
		if key == 3 {
			panic("master build exploded for this population")
		}
		return &key
	}
}

func (t *poisonedPrepTarget) Prepare(sc scenario.Scenario) {
	key := sc.GetOr("x", 0) % 5
	t.masters.Prepare(key, t.build(key))
}

func (t *poisonedPrepTarget) Run(sc scenario.Scenario) Result {
	key := sc.GetOr("x", 0) % 5
	d := t.masters.Acquire(key, t.build(key))
	defer t.masters.Release(key, d)
	return t.Runner.Run(sc)
}

// TestEnginePrefetchPanicDegrades: a target panic inside the engine's
// fire-and-forget Prepare goroutine must cost the campaign exactly what
// the same panic costs inside a run — error Results for that population's
// scenarios, everything else intact — not the process.
func TestEnginePrefetchPanicDegrades(t *testing.T) {
	target := &poisonedPrepTarget{fakeTarget: fakeTarget{Runner: pureRunner(), plugins: twoDimPlugins()}}
	eng, err := NewEngine(target, WithExplorer(newEngineController(t, 42)), WithBudget(80), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	results, runErr := eng.RunAll(context.Background())
	if runErr != nil {
		t.Fatalf("prefetch panic aborted the campaign: %v", runErr)
	}
	if len(results) != 80 {
		t.Fatalf("campaign ran %d of 80 tests", len(results))
	}
	pure := pureRunner()
	poisoned := 0
	for _, r := range results {
		if r.Scenario.GetOr("x", 0)%5 == 3 {
			poisoned++
			if !strings.Contains(r.Error, "master build exploded") {
				t.Fatalf("poisoned population's result lacks the panic: %+v", r)
			}
			continue
		}
		want := pure.Run(r.Scenario)
		if r.Errored() || r.Impact != want.Impact {
			t.Fatalf("healthy result disturbed: got %+v, want impact %v", r, want.Impact)
		}
	}
	if poisoned == 0 {
		t.Fatal("campaign never visited the poisoned population")
	}
	if target.masters.building[3] {
		t.Error("panicked Prepare left its key marked as building")
	}
}
