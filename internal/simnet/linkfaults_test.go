package simnet

import (
	"testing"
	"time"

	"avd/internal/faultinject"
	"avd/internal/sim"
)

// xorCorrupter garbles int payloads by flipping a high bit, returning a
// new value per the Corrupter contract; non-int payloads decline.
func xorCorrupter(from, to Addr, payload any) any {
	if v, ok := payload.(int); ok {
		return v ^ 0x1000
	}
	return nil
}

func corruptEvery(n uint64) faultinject.Rule {
	return faultinject.Rule{
		Point:    PointLinkCorrupt,
		Trigger:  faultinject.ModMask{Mask: 1, Period: n},
		Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
	}
}

func dupEvery(n, offset uint64) faultinject.Rule {
	return faultinject.Rule{
		Point:    PointLinkDup,
		Trigger:  faultinject.ModMask{Mask: 1 << offset, Period: n},
		Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
	}
}

// TestLinkFaultCorruptDeterministic: an armed corruption plan garbles
// exactly the sends its trigger selects — a pure function of the call
// number — and leaves other links untouched.
func TestLinkFaultCorruptDeterministic(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.ArmLinkFaults(1, 2, faultinject.NewPlan(corruptEvery(3)), xorCorrupter)
	for i := 0; i < 9; i++ {
		net.Send(1, 2, i)
	}
	net.Send(3, 2, 100) // different sender: not a victim
	eng.Run()
	if len(rec.msgs) != 10 {
		t.Fatalf("delivered %d, want 10", len(rec.msgs))
	}
	for i := 0; i < 9; i++ {
		want := i
		if i%3 == 0 {
			want ^= 0x1000
		}
		if rec.msgs[i] != want {
			t.Errorf("message %d delivered as %#x, want %#x", i, rec.msgs[i], want)
		}
	}
	if rec.msgs[9] != 100 {
		t.Errorf("unmatched link garbled: got %v", rec.msgs[9])
	}
	if st := net.Stats(); st.Corrupted != 3 || st.Duplicated != 0 {
		t.Errorf("stats = %+v, want Corrupted 3, Duplicated 0", st)
	}
}

// TestLinkFaultCorrupterDeclines: a corrupter returning nil delivers the
// payload untouched and does not count a corruption.
func TestLinkFaultCorrupterDeclines(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	var rec recorder
	net.Handle(2, rec.handler())
	net.ArmLinkFaults(AnyAddr, AnyAddr, faultinject.NewPlan(corruptEvery(1)), xorCorrupter)
	net.Send(1, 2, "not-an-int")
	eng.Run()
	if len(rec.msgs) != 1 || rec.msgs[0] != "not-an-int" {
		t.Fatalf("declined corruption altered delivery: %v", rec.msgs)
	}
	if st := net.Stats(); st.Corrupted != 0 {
		t.Errorf("declined corruption counted: %+v", st)
	}
}

// TestLinkFaultDupDeliversExtraCopy: a duplication rule injects exactly
// one extra delivery immediately behind the original — at-least-once
// delivery, not an amplification loop.
func TestLinkFaultDupDeliversExtraCopy(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.ArmLinkFaults(1, AnyAddr, faultinject.NewPlan(dupEvery(4, 1)), nil)
	for i := 0; i < 8; i++ {
		net.Send(1, 2, i)
	}
	eng.Run()
	want := []any{0, 1, 1, 2, 3, 4, 5, 5, 6, 7}
	if len(rec.msgs) != len(want) {
		t.Fatalf("delivered %v, want %v", rec.msgs, want)
	}
	for i := range want {
		if rec.msgs[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", rec.msgs, want)
		}
	}
	st := net.Stats()
	if st.Sent != 8 || st.Duplicated != 2 || st.Delivered != 10 {
		t.Errorf("stats = %+v, want Sent 8, Duplicated 2, Delivered 10", st)
	}
}

// TestLinkFaultStatsConservation pins the Stats ledger invariant under
// every fault at once: after the network drains,
//
//	Sent + Duplicated == Delivered + Dropped + Partitioned
//
// (in-flight is zero), with Corrupted counted orthogonally.
func TestLinkFaultStatsConservation(t *testing.T) {
	eng := sim.New(23)
	net := New(eng, Config{BaseLatency: 2 * time.Millisecond, Jitter: time.Millisecond, DropRate: 0.3})
	var rec recorder
	net.Handle(2, rec.handler())
	net.Handle(3, rec.handler())
	net.ArmLinkFaults(AnyAddr, AnyAddr,
		faultinject.NewPlan(corruptEvery(2), dupEvery(3, 1)), xorCorrupter)
	net.Block(4, 2)
	for i := 0; i < 200; i++ {
		net.Send(1, 2, i)
		net.Send(1, 99, i) // unknown destination: dropped at delivery
		net.Send(4, 2, i)  // blocked at send time
		net.Send(1, 3, i)
	}
	// A partition forming mid-flight loses in-flight traffic at delivery
	// time; the ledger must still balance.
	eng.Schedule(time.Millisecond, func() { net.Block(1, 3) })
	eng.Run()

	st := net.Stats()
	if st.Sent != 800 {
		t.Fatalf("Sent = %d, want 800", st.Sent)
	}
	if st.Corrupted == 0 || st.Duplicated == 0 || st.Dropped == 0 || st.Partitioned == 0 {
		t.Fatalf("test did not exercise every counter: %+v", st)
	}
	if got, want := st.Delivered+st.Dropped+st.Partitioned, st.Sent+st.Duplicated; got != want {
		t.Fatalf("ledger out of balance: Delivered+Dropped+Partitioned = %d, Sent+Duplicated = %d (%+v)",
			got, want, st)
	}
	if st.Delivered != uint64(len(rec.msgs)) {
		t.Fatalf("Delivered = %d but handlers saw %d", st.Delivered, len(rec.msgs))
	}
}

// TestStatsConservationMidTrain: the ledger counts a message when its
// delivery resolves, not when its queue event does. Same-instant
// deliveries share one engine event (a sim.Stream train); when the step
// budget cuts a train short, what it has not delivered is still in
// flight, before and after a rollback onto the half-delivered train:
//
//	Sent + Duplicated == Delivered + Dropped + Partitioned + Pending()
//
// and the interrupted, rolled-back run ends on the ledger of a straight one.
func TestStatsConservationMidTrain(t *testing.T) {
	build := func() (*sim.Engine, *Network) {
		eng := sim.New(23)
		net := New(eng, Config{BaseLatency: 2 * time.Millisecond})
		net.Handle(2, func(Addr, any) {})
		net.ArmLinkFaults(AnyAddr, AnyAddr, faultinject.NewPlan(dupEvery(3, 1)), xorCorrupter)
		for i := 0; i < 100; i++ {
			net.Send(1, 2, i)
			net.Send(1, 99, i) // unknown destination: dropped at delivery
		}
		return eng, net
	}
	straightEng, straight := build()
	straightEng.Run()

	eng, net := build()
	inFlight := int(net.Stats().Sent + net.Stats().Duplicated)
	if inFlight <= 200 {
		t.Fatalf("no duplicates were injected: %d deliveries for 200 sends", inFlight)
	}
	balance := func(when string, inFlight int) {
		t.Helper()
		st := net.Stats()
		if eng.Pending() != inFlight {
			t.Fatalf("%s: %d deliveries pending, want %d", when, eng.Pending(), inFlight)
		}
		if got, want := st.Delivered+st.Dropped+st.Partitioned+uint64(inFlight), st.Sent+st.Duplicated; got != want {
			t.Fatalf("%s: ledger out of balance: Delivered+Dropped+Partitioned+in-flight = %d, Sent+Duplicated = %d (%+v)",
				when, got, want, st)
		}
	}
	balance("before the window", inFlight)

	eng.SetStepBudget(30)
	eng.Run()
	if !eng.BudgetExceeded() || eng.Dispatches() != 0 {
		t.Fatalf("the budget did not trip inside the one train: exceeded=%v, %d dispatches", eng.BudgetExceeded(), eng.Dispatches())
	}
	balance("budget tripped mid-train", inFlight-30)

	esnap, nsnap := eng.Snapshot(), net.Snapshot()
	for fork := 0; fork < 3; fork++ {
		eng.SetStepBudget(0)
		eng.Run()
		balance("drained", 0)
		if net.Stats() != straight.Stats() {
			t.Fatalf("fork %d ends on %+v, a straight run on %+v", fork, net.Stats(), straight.Stats())
		}
		net.Send(1, 2, -1) // a delivery the rollback discards
		eng.Restore(esnap)
		net.Restore(nsnap)
		balance("rolled back onto the half-delivered train", inFlight-30)
	}
}

// TestLinkFaultSnapshotRestore: the armed plan's call counters are part
// of the network snapshot — a fork must garble the same sends as the run
// it forked from, and re-arming replaces cleanly.
func TestLinkFaultSnapshotRestore(t *testing.T) {
	run := func(fork bool) []any {
		eng := sim.New(5)
		net := New(eng, Config{BaseLatency: time.Millisecond})
		var rec recorder
		net.Handle(2, rec.handler())
		net.ArmLinkFaults(1, 2, faultinject.NewPlan(corruptEvery(2), dupEvery(5, 2)), xorCorrupter)
		for i := 0; i < 4; i++ {
			net.Send(1, 2, i)
		}
		eng.Run()
		if fork {
			esnap := eng.Snapshot()
			nsnap := net.Snapshot()
			// Diverge: burn fault-plan calls, then roll back.
			for i := 0; i < 7; i++ {
				net.Send(1, 2, 1000+i)
			}
			eng.Run()
			eng.Restore(esnap)
			net.Restore(nsnap)
			rec.msgs = rec.msgs[:4+1] // dup of call 2 delivered an extra copy
		}
		for i := 4; i < 12; i++ {
			net.Send(1, 2, i)
		}
		eng.Run()
		return rec.msgs
	}
	cold, forked := run(false), run(true)
	if len(cold) != len(forked) {
		t.Fatalf("fork delivered %d, cold %d", len(forked), len(cold))
	}
	for i := range cold {
		if cold[i] != forked[i] {
			t.Fatalf("fork diverged at %d: %v vs %v", i, forked[i], cold[i])
		}
	}
}
