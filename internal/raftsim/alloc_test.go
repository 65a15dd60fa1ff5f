package raftsim

import (
	"testing"
	"time"

	"avd/internal/core"
)

// TestRaftRestoreAllocFree pins the slab diet (arena.go): once the
// shared pool is warm and the engine's queue has reached its
// steady-state capacity, a measurement-window/restore cycle must not
// allocate. Every AppendEntries batch, vote, client request and reply
// the window builds is carved from chunks leased from the Runner's pool,
// and the restore hands them — with the nodes' logs and the oracle
// tables — back for the next fork to reuse (DESIGN.md §15).
func TestRaftRestoreAllocFree(t *testing.T) {
	w := DefaultWorkload()
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDeployment(8)
	d.Capture()
	d.Restore() // a captured deployment is parked: only Restore may follow

	cycle := func() {
		d.eng.RunFor(100 * time.Millisecond)
		d.Restore()
	}
	// Warm to the high-water marks: the first cycles may grow the pool,
	// the engine's queue and dense tables.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("run+restore cycle allocates %.1f objects per fork; want 0", allocs)
	}
}

// TestForkedStormAllocs is the Raft twin of cluster.TestForkedBigMACAllocs:
// with its master and baseline in place, a forked leader-flap storm (10
// clients, the leader isolated for 200 ms every 300 ms, 1.5 s window)
// allocates forkedAllocs objects — the heal callback each strike
// schedules, arming, the baseline lookup; messages and logs come from the
// pool.
func TestForkedStormAllocs(t *testing.T) {
	const forkedAllocs = 12
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(r.Plugins()...)
	if err != nil {
		t.Fatal(err)
	}
	storm := space.New(map[string]int64{DimClients: 10, DimFlapIntervalMS: 300, DimFlapDownMS: 200})
	r.Baseline(10)
	r.RunFork(storm) // builds, warms and captures the master
	if allocs := testing.AllocsPerRun(20, func() { r.RunFork(storm) }); allocs > forkedAllocs {
		t.Errorf("a forked leader-flap storm allocates %.0f objects, pinned at %d", allocs, forkedAllocs)
	}
}
