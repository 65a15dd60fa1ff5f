package campaign

import (
	"context"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
)

// fig2PoolHighWater is the most 32 KB chunks the slab pool holds at once,
// leased and free together, over the benchmark's pbft-fig2 campaign run
// in process: 100 tests of the avd strategy from seed 1, 1.5 s windows,
// the 2M-event step budget. The pool is fully resident at the campaign's
// peak, so this is the pool's exact share of that workload's peak RSS:
// 2.1 MB. It was 486 (15.2 MB) while requests, votes, pre-prepares and
// their authenticators stayed carved until the rewind; they now go back to
// the arena when their last holder drops them. It was 79 (2.5 MB) while
// authenticators were tag vectors carved from a span of their own and a
// request was 64 bytes instead of 56 (mac.Auth). A change that moves it
// changed what a window sends, what a message costs or which messages go
// back; update the figure only with that explanation.
const fig2PoolHighWater = 67

// TestFig2PoolHighWater is the exact guard on the campaign-level memory
// claim (CI's perf-smoke runs it by name).
func TestFig2PoolHighWater(t *testing.T) {
	setup, err := Build(Config{
		Target: "pbft", Strategy: "avd", Tests: 100, Seed: 1,
		Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(100), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != 100 {
		t.Fatalf("campaign ran %d tests: %v", len(results), err)
	}
	if got := setup.Target.(*cluster.Runner).Pool().HighWater(); got != fig2PoolHighWater {
		t.Errorf("the pool held at most %d chunks (%d KB), want exactly %d", got, got*32, fig2PoolHighWater)
	}
}
