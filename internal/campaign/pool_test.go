package campaign

import (
	"context"
	"runtime"
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
// 2.1 MB. It was 69 (2.2 MB) while a backup's pending-forwarded records
// were carved from a slab of their own (two chunks at the peak); they are
// values in the replica's table now. It was 75 (2.4 MB) while a stalled avd search drew uniform
// random probes; it mutates novelty-archive entries now, so the campaign
// runs other windows, over 16 client populations instead of 22. It was
// 67 (2.1 MB) while view changes, their prepared proofs, new views and
// re-proposals were heap objects; they come from eight slabs and spans
// of their own now (pbft.Arena), and the campaign's view changes never
// need more than one chunk of each. It was 486 (15.2 MB) while requests,
// votes, pre-prepares and their authenticators stayed carved until the
// rewind; they now go back to the arena when their last holder drops
// them. It was 79 (2.5 MB) while authenticators were tag vectors carved
// from a span of their own and a request was 64 bytes instead of 56
// (mac.Auth). A change that moves it changed which windows the campaign
// runs, what a window sends, what a message costs or which messages go
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

// faultsCoverageAllocMB bounds what the benchmark's pbft-faults-coverage
// campaign allocates run in process, set-up included: 400 tests of the
// coverage strategy (the avd Controller) over crash, skew, oneway,
// corrupt and dup faults from seed 1, 1.5 s windows, the 2M-event step
// budget (the growth of runtime.MemStats.TotalAlloc). Oneway and crash faults make PBFT change
// views. While view changes built their messages on the heap the campaign
// allocated 145.6 MB in 1.43 M objects, 59 MB of them prepared proofs
// alone, and that garbage set the workload's peak RSS. They come from the
// window arena now, and the campaign allocates 71.1 MB in 187 k objects
// (74.5 MB in 225 k under the archive-only explorer that name used to
// choose), most of it the masters' warm-ups. The bound leaves about a seventh for
// growth elsewhere; a view-change path that allocates again fails it.
const faultsCoverageAllocMB = 85

// TestFaultsCoverageAllocs is the guard on that campaign's allocation
// (CI's window lease guard runs it by name).
func TestFaultsCoverageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 400-test campaign")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	setup, err := Build(Config{
		Target: "pbft", Strategy: "coverage", Faults: "crash,skew,oneway,corrupt,dup", Tests: 400, Seed: 1,
		Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(400), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != 400 {
		t.Fatalf("campaign ran %d tests: %v", len(results), err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("the campaign allocated %.1f MB in %d objects", mb, after.Mallocs-before.Mallocs)
	if mb > faultsCoverageAllocMB {
		t.Errorf("the campaign allocated %.1f MB, bound %d MB", mb, faultsCoverageAllocMB)
	}
}
