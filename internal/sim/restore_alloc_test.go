package sim

import (
	"testing"
	"time"
)

// TestRestoreAllocFree pins the allocation cost of the delta-restore hot
// path: once the heap, the dirty list and the free list have reached
// steady-state capacity, a run/restore cycle must not allocate.
func TestRestoreAllocFree(t *testing.T) {
	e := New(1)
	// A recurring-delay workload, plus randomized one-shot timers, plus
	// timer churn (cancel + re-arm), plus an election timer every tick
	// pushes back through Reset: its node is stale at the capture and is
	// re-keyed in every cycle.
	var tick func()
	var churn, election Timer
	tick = func() {
		e.Schedule(time.Millisecond, tick)
		churn.Stop()
		churn = e.Schedule(5*time.Millisecond, func() {})
		e.Schedule(time.Duration(e.Rand().Int63n(int64(3*time.Millisecond))), func() {})
		election = e.Reset(election, e.Now().Add(3*time.Millisecond+time.Duration(e.Rand().Int63n(int64(3*time.Millisecond)))), func() {})
	}
	for i := 0; i < 4; i++ {
		e.Schedule(time.Millisecond, tick)
	}
	e.RunFor(300 * time.Millisecond)

	s := e.Snapshot()
	if election.When() == e.heap[e.arena[election.idx].pos].at {
		t.Fatal("the election timer's node is not stale at the capture")
	}
	cycle := func() {
		e.RunFor(100 * time.Millisecond)
		if e.Requeues() == s.requeues {
			t.Fatal("the cycle re-queued no stale node")
		}
		e.Restore(s)
	}
	// Warm the pools: the first cycles may grow the heap, the dirty list
	// and the free list to their high-water marks.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("run+restore cycle allocates %.1f objects per fork; want 0", allocs)
	}
}

// TestRestoreDeltaMatchesFull cross-checks the delta path against the
// full-copy path: running from a delta restore and from a full restore
// (forced by restoring an older snapshot first) produces the same
// executed-event counts and clock. The election timer is re-armed through
// Reset every tick for 1–4 ms on: mostly in place (a stale node is in
// flight at every capture and rollback), sometimes after it fired.
func TestRestoreDeltaMatchesFull(t *testing.T) {
	type outcome struct {
		executed, requeues uint64
		now                Time
		pending            int
	}
	run := func(forceFull bool) outcome {
		e := New(42)
		var tick func()
		var election Timer
		tick = func() {
			e.Schedule(2*time.Millisecond, tick)
			e.Schedule(time.Duration(e.Rand().Int63n(int64(time.Millisecond))), func() {})
			election = e.Reset(election, e.Now().Add(time.Millisecond+time.Duration(e.Rand().Int63n(int64(3*time.Millisecond)))), func() {})
		}
		e.Schedule(time.Millisecond, tick)
		e.RunFor(50 * time.Millisecond)
		old := e.Snapshot()
		s := e.Snapshot()
		for i := 0; i < 5; i++ {
			e.RunFor(20 * time.Millisecond)
			if forceFull {
				// Restoring the non-tracked snapshot forces the
				// full-copy path; it captures identical state, so the
				// outcome must match the delta path exactly.
				e.Restore(old)
			} else {
				e.Restore(s)
			}
		}
		e.RunFor(20 * time.Millisecond)
		return outcome{e.Executed(), e.Requeues(), e.Now(), e.Pending()}
	}
	delta, full := run(false), run(true)
	if delta != full {
		t.Fatalf("delta path %+v diverges from full path %+v", delta, full)
	}
	if delta.requeues == 0 {
		t.Fatal("no stale node was re-queued")
	}
}
