package sim

import (
	"testing"
	"time"
)

// TestSkewZeroIsIdentity: a freshly registered clock has zero skew, and
// ScheduleSkewed through it must be indistinguishable from Schedule —
// same fire time, same ordering relative to plain events.
func TestSkewZeroIsIdentity(t *testing.T) {
	e := New(1)
	clock := e.RegisterClock()
	var plain, skewed Time
	e.Schedule(7*time.Millisecond, func() { plain = e.Now() })
	e.ScheduleSkewed(clock, 7*time.Millisecond, func() { skewed = e.Now() })
	e.Run()
	if plain != skewed || plain != Time(7*time.Millisecond) {
		t.Fatalf("zero-skew fire times: plain %v, skewed %v, want 7ms", plain, skewed)
	}
}

// TestSkewScalesDelays: positive skew (fast clock) fires node-local
// timeouts early in global time, negative skew fires them late, and the
// scaling matches the permille arithmetic exactly.
func TestSkewScalesDelays(t *testing.T) {
	e := New(1)
	fast := e.RegisterClock()
	slow := e.RegisterClock()
	e.SetSkew(fast, 1000) // clock runs 2x fast: 10ms local = 5ms global
	e.SetSkew(slow, -500) // clock runs at half speed: 10ms local = 20ms global
	var fastAt, slowAt Time
	e.ScheduleSkewed(fast, 10*time.Millisecond, func() { fastAt = e.Now() })
	e.ScheduleSkewed(slow, 10*time.Millisecond, func() { slowAt = e.Now() })
	e.Run()
	if fastAt != Time(5*time.Millisecond) {
		t.Errorf("fast clock fired at %v, want 5ms", fastAt)
	}
	if slowAt != Time(20*time.Millisecond) {
		t.Errorf("slow clock fired at %v, want 20ms", slowAt)
	}
	if got := e.Skew(fast); got != 1000 {
		t.Errorf("Skew(fast) = %d, want 1000", got)
	}
}

// TestSkewClampsStoppedClock: a skew at or below -1000 permille would
// stop or reverse the clock; SetSkew clamps it so timeouts still fire in
// finite global time.
func TestSkewClampsStoppedClock(t *testing.T) {
	e := New(1)
	c := e.RegisterClock()
	e.SetSkew(c, -5000)
	fired := false
	e.ScheduleSkewed(c, time.Millisecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("clamped clock never fired")
	}
}

// TestStepBudgetDegradesStorm: a self-perpetuating event storm must not
// run forever — the armed watchdog stops dispatch after the budget and
// latches BudgetExceeded; disarming with 0 clears the flag.
func TestStepBudgetDegradesStorm(t *testing.T) {
	e := New(1)
	var storm func()
	fired := 0
	storm = func() {
		fired++
		e.Schedule(time.Microsecond, storm)
	}
	e.Schedule(0, storm)
	e.SetStepBudget(100)
	e.Run() // would never return without the watchdog
	if !e.BudgetExceeded() {
		t.Fatal("storm did not trip the step budget")
	}
	if fired != 100 {
		t.Fatalf("storm fired %d events, want exactly the 100-step budget", fired)
	}
	// Disarm: the flag clears and the engine dispatches again.
	e.SetStepBudget(0)
	if e.BudgetExceeded() {
		t.Fatal("disarming did not clear the tripped flag")
	}
	if !e.Step() {
		t.Fatal("engine refused to dispatch after disarm")
	}
}

// TestStepBudgetRearmCountsFromNow: the budget is "steps more from here",
// not an absolute executed-count, so re-arming between tests gives every
// scenario the same allowance regardless of history.
func TestStepBudgetRearmCountsFromNow(t *testing.T) {
	e := New(1)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	e.SetStepBudget(5)
	for i := 0; i < 20; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if !e.BudgetExceeded() {
		t.Fatal("re-armed budget did not trip")
	}
	if got := e.Executed(); got != 15 {
		t.Fatalf("executed %d events, want 10 prior + 5 budgeted", got)
	}
}

// TestSkewAndBudgetSnapshotRestore: clock skews and the watchdog state
// are part of the engine snapshot — a fork that changes them must not
// leak into a sibling fork restored from the same snapshot, nor, through
// the restored fork, into the snapshot itself.
func TestSkewAndBudgetSnapshotRestore(t *testing.T) {
	e := New(1)
	c := e.RegisterClock()
	e.SetSkew(c, 200)
	snap := e.Snapshot()

	e.SetSkew(c, -300)
	var storm func()
	storm = func() { e.Schedule(time.Microsecond, storm) }
	e.Schedule(0, storm)
	e.SetStepBudget(50)
	e.Run()
	if !e.BudgetExceeded() {
		t.Fatal("storm fork did not trip the budget")
	}

	e.Restore(snap)
	if e.BudgetExceeded() {
		t.Fatal("restore kept the sibling fork's tripped budget")
	}
	if got := e.Skew(c); got != 200 {
		t.Fatalf("restore kept the sibling fork's skew: %d, want 200", got)
	}
	var at Time
	e.ScheduleSkewed(c, 12*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != Time(10*time.Millisecond) {
		t.Fatalf("restored clock fired at %v, want 10ms (12ms at +200 permille)", at)
	}

	e.SetSkew(c, -300)
	e.Restore(snap)
	if got := e.Skew(c); got != 200 {
		t.Fatalf("a second restore of the snapshot reads skew %d, want 200: the first fork wrote into it", got)
	}
}
