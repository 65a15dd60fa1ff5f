package sim

import (
	"slices"
	"testing"
	"time"
)

// ticker is a self-rescheduling workload whose mutable state (the event
// count) lives outside the engine, mirroring how the deployment
// harnesses pair an engine snapshot with their own state capture.
type ticker struct {
	e     *Engine
	n     int
	limit int
	out   []int64
}

func (tk *ticker) tick() {
	tk.out = append(tk.out, int64(tk.e.Now()))
	tk.n++
	if tk.n < tk.limit {
		tk.e.Schedule(time.Duration(tk.e.Rand().Int63n(1000))*time.Microsecond, tk.tick)
	}
}

// TestSnapshotRestoreIdenticalContinuation: a run continued after
// Snapshot+Restore must replay exactly the run that never restored, and
// a snapshot must be reusable for any number of forks.
func TestSnapshotRestoreIdenticalContinuation(t *testing.T) {
	mid := Time(10 * time.Millisecond)

	// Reference: run start-to-finish on an engine that never snapshots
	// (pausing at mid, which is where the other engine will snapshot).
	cold := &ticker{e: New(7), limit: 40}
	cold.e.Schedule(0, cold.tick)
	cold.e.RunUntil(mid)
	coldMid := cold.n
	cold.e.Run()

	warm := &ticker{e: New(7), limit: 40}
	warm.e.Schedule(0, warm.tick)
	warm.e.RunUntil(mid)
	if warm.n != coldMid {
		t.Fatalf("warm stopped at %d events, cold at %d", warm.n, coldMid)
	}
	snap := warm.e.Snapshot()
	midN, midOut := warm.n, len(warm.out)

	// Restore twice: the second fork must match the first (reuse after
	// restore), and both must match the cold run's tail.
	tail := cold.out[midOut:]
	for fork := 0; fork < 2; fork++ {
		warm.e.Restore(snap)
		warm.n, warm.out = midN, warm.out[:midOut]
		warm.e.Run()
		got := warm.out[midOut:]
		if len(got) != len(tail) {
			t.Fatalf("fork %d length %d, want %d", fork, len(got), len(tail))
		}
		for i := range tail {
			if got[i] != tail[i] {
				t.Fatalf("fork %d diverges at %d: %d vs cold %d", fork, i, got[i], tail[i])
			}
		}
	}
}

// TestSnapshotRestoresRandStream: the random stream position is part of
// the snapshot; draws after Restore repeat exactly.
func TestSnapshotRestoresRandStream(t *testing.T) {
	e := New(3)
	for i := 0; i < 100; i++ {
		e.Rand().Int63()
		e.Rand().Uint64() // two source taps
		e.Rand().Float64()
	}
	snap := e.Snapshot()
	a := []int64{e.Rand().Int63(), e.Rand().Int63(), int64(e.Rand().Intn(1000))}
	e.Restore(snap)
	b := []int64{e.Rand().Int63(), e.Rand().Int63(), int64(e.Rand().Intn(1000))}
	if a[0] != b[0] || a[1] != b[1] || a[2] != b[2] {
		t.Fatalf("rand stream not restored: %v vs %v", a, b)
	}
}

// TestSnapshotRevivesPendingTimers: a timer pending at snapshot time must
// be pending again after restore — including its Stop semantics.
func TestSnapshotRevivesPendingTimers(t *testing.T) {
	e := New(1)
	fired := 0
	timer := e.Schedule(time.Millisecond, func() { fired++ })
	snap := e.Snapshot()

	e.Run()
	if fired != 1 || timer.Active() {
		t.Fatalf("before restore: fired=%d active=%v", fired, timer.Active())
	}
	e.Restore(snap)
	if !timer.Active() {
		t.Fatal("restored timer should be active again")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("restored timer did not fire: fired=%d", fired)
	}
	e.Restore(snap)
	if !timer.Stop() {
		t.Fatal("restored timer should be stoppable")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("stopped restored timer fired: fired=%d", fired)
	}
}

// TestSnapshotInertsPostSnapshotTimers: handles created after the
// snapshot must go inert on restore even though their arena slots are
// recycled for new events — both a slot grown past the snapshot arena and
// one the snapshot holds as free, which comes back exactly as it was.
func TestSnapshotInertsPostSnapshotTimers(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(time.Millisecond, func() {}).Stop() // a free slot inside the arena
	snap := e.Snapshot()
	reused := e.Schedule(2*time.Millisecond, func() {})
	grown := e.Schedule(2*time.Millisecond, func() {})
	e.Restore(snap)
	fired := 0
	e.Schedule(3*time.Millisecond, func() { fired++ })
	e.Schedule(3*time.Millisecond, func() { fired++ })
	for _, late := range []Timer{reused, grown} {
		if late.Active() {
			t.Error("post-snapshot timer reports active after restore")
		}
		if late.Stop() {
			t.Error("post-snapshot timer stopped a restored event")
		}
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("restored engine fired %d new events, want 2", fired)
	}
}

// TestSnapshotCanceledEventsStayCanceled: cancellations before the
// snapshot hold in every fork.
func TestSnapshotCanceledEventsStayCanceled(t *testing.T) {
	e := New(1)
	fired := false
	timer := e.Schedule(time.Millisecond, func() { fired = true })
	timer.Stop()
	snap := e.Snapshot()
	for i := 0; i < 2; i++ {
		e.Restore(snap)
		e.Run()
		if fired {
			t.Fatalf("canceled event fired in fork %d", i)
		}
	}
}

// TestSnapshotDisownsPendingDeliveries: a delivery is a value, so every
// fork gets the captured one back as it was, and a delivery pending at the
// capture arrives un-owned in the run that continues and in every fork,
// while one scheduled after the capture keeps its Owned bit.
func TestSnapshotDisownsPendingDeliveries(t *testing.T) {
	e := New(1)
	type got struct {
		arg  any
		meta uint64
	}
	var log []got
	s := e.NewStream(func(arg any, meta uint64) { log = append(log, got{arg, meta}) })
	s.Schedule(time.Millisecond, "captured", 42|Owned)
	snap := e.Snapshot()
	s.Schedule(time.Millisecond, "after", 7|Owned)
	e.Run()
	if want := []got{{"captured", 42}, {"after", 7 | Owned}}; !slices.Equal(log, want) {
		t.Fatalf("the run that continued delivered %v, want %v", log, want)
	}
	for i := 0; i < 3; i++ {
		log = log[:0]
		e.Restore(snap)
		e.Run()
		if want := []got{{"captured", 42}}; !slices.Equal(log, want) {
			t.Fatalf("fork %d delivered %v, want %v", i, log, want)
		}
	}
}

// TestSnapshotSameTimeOrdering: ties at one instant keep their insertion
// order across restore (the captured sequence numbers come back).
func TestSnapshotSameTimeOrdering(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	snap := e.Snapshot()
	e.Run()
	first := append([]int(nil), got...)
	got = got[:0]
	e.Restore(snap)
	e.Run()
	if len(first) != len(got) {
		t.Fatalf("restored run fired %d events, want %d", len(got), len(first))
	}
	for i := range first {
		if first[i] != got[i] {
			t.Fatalf("same-time order diverged after restore: %v vs %v", first, got)
		}
	}
}

// TestRestoreForeignSnapshotPanics: snapshots are engine-bound.
func TestRestoreForeignSnapshotPanics(t *testing.T) {
	a, b := New(1), New(1)
	snap := a.Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("restoring a foreign snapshot did not panic")
		}
	}()
	b.Restore(snap)
}

// BenchmarkSnapshotRestore measures the fork primitive itself on a
// loaded engine (1024 pending events).
func BenchmarkSnapshotRestore(b *testing.B) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	snap := e.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Restore(snap)
	}
}
