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
// leased and free together, over the benchmark's pbft-fig2 campaign run in
// process: 100 tests of the avd strategy from seed 1, 1.5 s windows, the
// 2M-event step budget. The pool is fully resident at the campaign's peak,
// so this is the pool's exact share of that workload's peak RSS: 2.3 MB. It
// was 75 (2.4 MB) while a request was 56 bytes instead of 48: it stored its
// Op, which Request.Op derives now. It was 67 (2.1 MB) while a capture left
// each slab the partly carved chunk of its warm-up, and a window's first
// objects filled that tail; the warm-up is heap memory now, so a window
// leases one chunk more for each slab whose window objects fitted there. It
// was 69 (2.2 MB) while a backup's pending-forwarded records were carved
// from a slab of their own (two chunks at the peak); they are values in the
// replica's table now. It was 75 (2.4 MB) while a stalled avd search drew
// uniform random probes; it mutates novelty-archive entries now, so the
// campaign runs other windows, over 16 client populations instead of 22. It
// was 67 (2.1 MB) while view changes, their prepared proofs, new views and
// re-proposals were heap objects; they come from eight slabs and spans of
// their own now (pbft.Arena), and the campaign's view changes never need
// more than one chunk of each. It was 486 (15.2 MB) while requests, votes,
// pre-prepares and their authenticators stayed carved until the rewind;
// they now go back to the arena when their last holder drops them. It was
// 79 (2.5 MB) while authenticators were tag vectors carved from a span of
// their own and a request was 64 bytes instead of 56 (mac.Auth). A change
// that moves it changed which windows the campaign runs, what a window
// sends, what a message costs or which messages go back; update the figure
// only with that explanation.
const fig2PoolHighWater = 73

// fig2Masters is how many warm masters the same campaign leaves parked:
// one per client population it forks, 22 attack populations over 16
// correct-client counts, and 6 that only a baseline forks (the population
// that sets the count alone). Each holds its warm-up's live heap objects,
// so this count sets what the campaign's memory grows with.
const fig2Masters = 28

// fig2RetainedMB bounds what the same campaign keeps after it and a
// collection, measured as faultsCoverageRetainedMB is: 12.9 MB, nearly all
// of it the 28 parked masters. It was 13.5 MB while every window kept its
// latency samples, in a buffer the pool stocked. It was 14.8 MB while a warm-up request was
// 56 bytes, in Go's 64-byte size class; it is 48 now (Request.Op). It was
// 16.2 MB while every master kept the delivery trains its windows grew; the
// engine borrows them from the pool's stock per window now
// (sim.Engine.Park). The bound leaves 0.5 MB for growth, so a master that
// keeps its trains again (14.8 MB) fails it.
const fig2RetainedMB = 14

// fig2AllocMB bounds what the same campaign allocates, set-up included
// (the growth of runtime.MemStats.TotalAlloc): 16.2 MB. Nearly all of it is
// the 28 warm-ups' live objects; the rest of what they allocate goes back
// to the pool. It was 31.5 MB while the warm-ups grew the replica tables
// on the heap, their freed messages were left to the collector, and every
// window kept its latency samples for a P99 nobody read; that garbage set
// the workload's peak RSS. The bound is not asserted under -race, whose
// instrumentation allocates (30.2 MB).
const fig2AllocMB = 20

// raftFlapRetainedMB bounds what the benchmark's raft-flap campaign keeps
// after it and a collection, measured as faultsCoverageRetainedMB is: 80
// tests of the avd strategy from seed 1, 1.5 s windows, the 2M-event step
// budget. It is 6.7 MB, most of it Raft logs: every node of every parked
// master holds one, and so do the captures and the scratch stock. It was
// 12.3 MB while a log entry was 24 bytes, a 64-bit term and seq and a
// word-sized client address; it is 12 now (raftsim.Entry). The bound
// leaves 1.9 MB for growth, so 24-byte entries fail it.
const raftFlapRetainedMB = 9

// TestRaftFlapRetained is the guard on the Raft campaign's retained heap.
func TestRaftFlapRetained(t *testing.T) {
	before := liveHeap()
	setup := runBenchCampaign(t, Config{Target: "raft", Strategy: "avd", Tests: 80})
	retained := (float64(liveHeap().HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(setup)
	t.Logf("the target retains %.1f MB after a collection", retained)
	if retained > raftFlapRetainedMB {
		t.Errorf("the target retains %.1f MB after a collection, bound %d MB", retained, raftFlapRetainedMB)
	}
}

// TestFig2PoolHighWater is the exact guard on the campaign-level memory
// claim (CI's test job runs it with the rest of the suite).
func TestFig2PoolHighWater(t *testing.T) {
	before := liveHeap()
	setup := runBenchCampaign(t, Config{Target: "pbft", Strategy: "avd", Tests: 100})
	var done runtime.MemStats
	runtime.ReadMemStats(&done)
	mb := float64(done.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("the campaign allocated %.1f MB", mb)
	if mb > fig2AllocMB && !raceEnabled {
		t.Errorf("the campaign allocated %.1f MB, bound %d MB", mb, fig2AllocMB)
	}
	runner := setup.Target.(*cluster.Runner)
	if got := runner.Pool().HighWater(); got != fig2PoolHighWater {
		t.Errorf("the pool held at most %d chunks (%d KB), want exactly %d", got, got*32, fig2PoolHighWater)
	}
	if masters := parked(runner.EachMaster); masters != fig2Masters {
		t.Errorf("the campaign parked %d masters, want exactly %d", masters, fig2Masters)
	}
	retained := (float64(liveHeap().HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(setup)
	t.Logf("the target retains %.1f MB after a collection", retained)
	if retained > fig2RetainedMB {
		t.Errorf("the target retains %.1f MB after a collection, bound %d MB", retained, fig2RetainedMB)
	}
}

// runBenchCampaign runs cfg's campaign in process as the benchmark runs
// it: seed 1, 1.5 s windows, the 2M-event step budget, one worker.
func runBenchCampaign(t *testing.T, cfg Config) *Setup {
	t.Helper()
	cfg.Seed, cfg.Measure, cfg.StepBudget, cfg.Workers, cfg.Shards = 1, 1500*time.Millisecond, 2_000_000, 1, 1
	setup, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(cfg.Tests), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != cfg.Tests {
		t.Fatalf("campaign ran %d tests: %v", len(results), err)
	}
	return setup
}

// liveHeap returns the memory statistics right after a collection.
func liveHeap() (ms runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// parked counts the masters a harness's EachMaster visits.
func parked[K, D any](each func(func(K, D))) (n int) {
	each(func(K, D) { n++ })
	return n
}

// faultsCoverageAllocMB bounds what the benchmark's pbft-faults-coverage
// campaign allocates run in process, set-up included: 400 tests of the
// coverage strategy (the avd Controller) over crash, skew, oneway, corrupt
// and dup faults from seed 1, 1.5 s windows, the 2M-event step budget (the
// growth of runtime.MemStats.TotalAlloc). Oneway and crash faults make PBFT
// change views. It is 25.7 MB in 188 k objects, nearly all of it the
// masters' warm-ups' live objects (36.8 MB under -race). It was 49.3 MB in
// 367 k (59.8 MB under -race) while the warm-ups grew the replica tables
// on the heap, their freed messages were left to the collector, every
// window kept its latency samples and a corrupted message's copy was a
// heap object; 145.6 MB in 1.43 M while view changes built their messages
// on the heap, 59 MB of them prepared proofs alone, and that garbage set
// the workload's peak RSS. The bound holds under -race too; a warm-up or a
// view-change path that allocates again fails it.
const faultsCoverageAllocMB = 40

// faultsCoverageAllocObjects bounds the objects the same campaign
// allocates (the growth of runtime.MemStats.Mallocs): 188,333, nearly all
// of them the warm-ups' live messages, which are heap objects until the
// capture. The bound leaves about a sixth for growth, so warm-ups that
// leave their freed messages to the collector again (366,770) fail it; it
// is not asserted under -race, whose instrumentation allocates.
const faultsCoverageAllocObjects = 220_000

// faultsCoverageRetainedMB bounds what the same campaign keeps after it and
// a collection: the growth of runtime.MemStats.HeapAlloc since before the
// target was built, nearly all of it the parked masters. It is 19.2 MB
// under -race too, the pool's stock of the warm-ups' freed messages
// included; it was 19.9 MB while the collector took those. It was 21.7 MB while a warm-up request was 56 bytes, in
// Go's 64-byte size class; it is 48 now (Request.Op). It was 24.6 MB while
// every master kept the delivery trains its windows grew, its free ones and
// those queued at window end; the engine borrows them from the pool's stock
// per window now (sim.Engine.Park). It was 33.1 MB while every master kept
// the replica tables and slab free lists its windows grew, which each
// Restore overwrites; they are borrowed from the pool's scratch stock per
// window now too, so a parked master keeps only its capture. It was 45.9 MB
// while a capture kept each 32 KB warm-up chunk that held a live object,
// plus each slab's partly carved chunk. The bound leaves 2.1 MB for growth,
// less than any of the last three residues; a master that keeps its trains
// (22.5 MB), dead warm-up memory or window tables again fails it.
const faultsCoverageRetainedMB = 22

// TestFaultsCoverageAllocs is the guard on that campaign's allocation and
// retained heap (CI's test job runs it with the rest of the suite).
func TestFaultsCoverageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 400-test campaign")
	}
	before := liveHeap()
	setup := runBenchCampaign(t, Config{Target: "pbft", Strategy: "coverage", Faults: "crash,skew,oneway,corrupt,dup", Tests: 400})
	after := liveHeap()
	runtime.KeepAlive(setup)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	objects := after.Mallocs - before.Mallocs
	t.Logf("the campaign allocated %.1f MB in %d objects", mb, objects)
	if mb > faultsCoverageAllocMB {
		t.Errorf("the campaign allocated %.1f MB, bound %d MB", mb, faultsCoverageAllocMB)
	}
	if objects > faultsCoverageAllocObjects && !raceEnabled {
		t.Errorf("the campaign allocated %d objects, bound %d", objects, faultsCoverageAllocObjects)
	}
	retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("the target retains %.1f MB after a collection", retained)
	if retained > faultsCoverageRetainedMB {
		t.Errorf("the target retains %.1f MB after a collection, bound %d MB", retained, faultsCoverageRetainedMB)
	}
}
