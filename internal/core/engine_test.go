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

// TestEngineStreamingDeterministic: a fixed (seed, workers) pair must
// reproduce itself through the streaming path, however goroutines
// interleave.
func TestEngineStreamingDeterministic(t *testing.T) {
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		run := func() []string {
			eng, err := NewEngine(newFakeTarget(),
				WithExplorer(newEngineController(t, 7)), WithBudget(60), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			var results []Result
			for res := range eng.Run(context.Background()) {
				results = append(results, res)
			}
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			return campaignFingerprint(results)
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d streaming nondeterministic at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
	}
}

// TestEngineCancellation: canceling mid-campaign closes the stream with
// the partial results executed so far, dispatching at most the batch in
// flight beyond the cancellation point. Gating runs on a token channel
// (instead of sleeps and elapsed-time bounds) keeps the test exact and
// wall-clock free: the execution count proves promptness.
func TestEngineCancellation(t *testing.T) {
	const workers = 4
	var executed atomic.Int64
	// Two full batches' worth of tokens: the third batch blocks until
	// the consumer has canceled and closed the channel.
	tokens := make(chan struct{}, 2*workers)
	for i := 0; i < 2*workers; i++ {
		tokens <- struct{}{}
	}
	gated := RunnerFunc(func(sc scenario.Scenario) Result {
		executed.Add(1)
		<-tokens
		return pureRunner().Run(sc)
	})
	eng, err := NewEngine(fakeTarget{Runner: gated, plugins: twoDimPlugins()},
		WithExplorer(newEngineController(t, 11)), WithBudget(10_000), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial []Result
	for res := range eng.Run(ctx) {
		partial = append(partial, res)
		if len(partial) == 2*workers {
			cancel()
			close(tokens) // release the blocked in-flight batch
		}
	}
	if eng.Err() != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", eng.Err())
	}
	if len(partial) < 2*workers || len(partial) > 4*workers {
		t.Fatalf("got %d partial results, want between %d and %d", len(partial), 2*workers, 4*workers)
	}
	// Prompt cancellation means no new batch after the one in flight: a
	// budget of 10,000 must stop within three batches.
	if n := executed.Load(); n > 3*workers {
		t.Fatalf("engine executed %d tests after cancellation at %d", n, 2*workers)
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
			WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers), WithCheckpoint(ck))
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		for range eng1.Run(ctx) {
			streamed++
			if streamed == 25 {
				cancel()
			}
		}
		cancel()
		if eng1.Err() != context.Canceled {
			t.Fatalf("workers=%d interrupted run Err() = %v", workers, eng1.Err())
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

// TestEngineDefaultExplorer: without WithExplorer the engine builds a
// Controller over the target's own plugins, seeded by WithSeed.
func TestEngineDefaultExplorer(t *testing.T) {
	run := func() []string {
		eng, err := NewEngine(newFakeTarget(), WithSeed(5), WithBudget(30))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return campaignFingerprint(results)
	}
	a, b := run(), run()
	if len(a) != 2*30 {
		t.Fatalf("default-explorer engine ran %d entries, want 60", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("default explorer nondeterministic at %d", i)
		}
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

// TestEngineSingleUse: a second Run returns a closed channel without
// executing anything, and must not poison the completed first
// campaign's Err.
func TestEngineSingleUse(t *testing.T) {
	eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 2)), WithBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	again := eng.Run(context.Background())
	if _, open := <-again; open {
		t.Fatal("reused engine emitted a result")
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("reuse poisoned the completed campaign's Err: %v", err)
	}
}

// TestEngineExhaustedExplorer: the stream ends cleanly when the explorer
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

// poisonedPrepTarget is a fork-capable Preparer whose master build
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

func (t *poisonedPrepTarget) RunFork(sc scenario.Scenario) Result {
	key := sc.GetOr("x", 0) % 5
	d := t.masters.Acquire(key, t.build(key))
	defer t.masters.Release(key, d)
	return t.Run(sc)
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
