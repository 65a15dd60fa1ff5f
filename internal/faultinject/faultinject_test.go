package faultinject

import "testing"

func corrupt(point string, mask, period uint64) Rule {
	return Rule{Point: point, Trigger: ModMask{Mask: mask, Period: period}, Decision: Decision{Action: ActCorrupt}}
}

// hits arms a fresh counter with plan on point and returns the call
// numbers among the first n that the schedule hits.
func hits(plan Plan, point string, n uint64) []uint64 {
	var c Counter
	c.Arm(plan, point)
	var got []uint64
	for call := uint64(0); call < n; call++ {
		if c.Check() {
			got = append(got, call)
		}
	}
	return got
}

func sameCalls(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s hit calls %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s hit calls %v, want %v", what, got, want)
		}
	}
}

func TestEmptyPlanNeverInjects(t *testing.T) {
	var c Counter
	c.Arm(Plan{}, "any.point")
	for i := 0; i < 100; i++ {
		if c.Check() {
			t.Fatalf("empty plan injected at call %d", i)
		}
	}
	if c.calls != 100 {
		t.Errorf("calls = %d, want 100", c.calls)
	}
	var unarmed Counter
	if unarmed.Check() {
		t.Error("the zero Counter injected")
	}
}

func TestCallNumbering(t *testing.T) {
	sameCalls(t, "bits 3 and 5 of an 8-call mask",
		hits(NewPlan(corrupt("p", 1<<3|1<<5, 8)), "p", 16), []uint64{3, 5, 11, 13})
}

func TestPointsAreIndependent(t *testing.T) {
	plan := NewPlan(corrupt("a", 1, 4))
	var a, b Counter
	a.Arm(plan, "a")
	b.Arm(plan, "b")
	if b.Check() {
		t.Error("rule on point a fired on point b")
	}
	if !a.Check() {
		t.Error("rule on point a did not fire on call 0")
	}
	if a.calls != 1 || b.calls != 1 {
		t.Errorf("counters mixed across points: a=%d b=%d", a.calls, b.calls)
	}
}

// TestFirstMatchingRuleWins: a point's rules are consulted in plan order
// and the first whose trigger matches decides the call, whatever the
// periods of the rules after it.
func TestFirstMatchingRuleWins(t *testing.T) {
	plan := NewPlan(
		Rule{Point: "p", Trigger: ModMask{Mask: 0b01, Period: 2}, Decision: Decision{Action: ActNone}},
		corrupt("p", 0b111, 3),
		corrupt("q", 1, 1),
	)
	// Even calls match the ActNone rule first; odd ones fall to the
	// every-call corrupt rule.
	sameCalls(t, "a none rule ahead of a corrupt one", hits(plan, "p", 8), []uint64{1, 3, 5, 7})
	plan = NewPlan(corrupt("p", 1<<1, 4), corrupt("p", 1<<0, 3))
	sameCalls(t, "two corrupt rules", hits(plan, "p", 13), []uint64{0, 1, 3, 5, 6, 9, 12})
}

func TestArmPanicsPastSixtyFourCalls(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rules repeating every 72 calls armed without a panic")
		}
	}()
	var c Counter
	c.Arm(NewPlan(corrupt("p", 1, 8), corrupt("p", 1, 9)), "p")
}

func TestModMaskTrigger(t *testing.T) {
	// Bit (call mod 12) of mask decides, exactly as the paper's experiment.
	mask := uint64(0b000000000101) // bits 0 and 2
	trig := ModMask{Mask: mask, Period: 12}
	for call := uint64(0); call < 48; call++ {
		want := call%12 == 0 || call%12 == 2
		if got := trig.Match(call); got != want {
			t.Fatalf("ModMask.Match(%d) = %v, want %v", call, got, want)
		}
	}
}

func TestModMaskAllBitsHitsEveryCall(t *testing.T) {
	trig := ModMask{Mask: 0xFFF, Period: 12}
	for call := uint64(0); call < 100; call++ {
		if !trig.Match(call) {
			t.Fatalf("full mask missed call %d", call)
		}
	}
}

func TestModMaskZeroPeriod(t *testing.T) {
	trig := ModMask{Mask: 0xFFF, Period: 0}
	if trig.Match(0) {
		t.Error("zero-period ModMask must never match")
	}
	if got := hits(NewPlan(corrupt("p", 0xFFF, 0)), "p", 10); len(got) != 0 {
		t.Errorf("zero-period rule hit calls %v", got)
	}
}

// TestEveryNth: a one-bit mask selects every n-th call from an offset,
// the schedule the link-fault tests arm.
func TestEveryNth(t *testing.T) {
	sameCalls(t, "every third call from 1", hits(NewPlan(corrupt("p", 1<<1, 3)), "p", 9), []uint64{1, 4, 7})
}

// TestAlwaysNever: a full mask hits every call, a zero mask none.
func TestAlwaysNever(t *testing.T) {
	if got := hits(NewPlan(corrupt("p", 0xF, 4)), "p", 50); len(got) != 50 {
		t.Errorf("full mask hit %d of 50 calls", len(got))
	}
	if got := hits(NewPlan(corrupt("p", 0, 12)), "p", 50); len(got) != 0 {
		t.Errorf("zero mask hit calls %v", got)
	}
}

// TestAfter: a counter armed after n calls keeps numbering from n, so a
// re-armed schedule sees the same call numbers as one armed at boot.
func TestAfter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Check()
	}
	c.Arm(NewPlan(corrupt("p", 1<<1, 4)), "p")
	var got []uint64
	for call := uint64(5); call < 14; call++ {
		if c.Check() {
			got = append(got, call)
		}
	}
	sameCalls(t, "a schedule armed after five calls", got, []uint64{5, 9, 13})
	c.Arm(Plan{}, "p")
	if c.Check() || c.calls != 15 {
		t.Errorf("disarming fired or lost the count: calls=%d", c.calls)
	}
}

func TestPlanIsImmutableCopy(t *testing.T) {
	rules := []Rule{corrupt("p", 1, 1)}
	p := NewPlan(rules...)
	rules[0].Point = "mutated"
	if got := hits(p, "p", 3); len(got) != 3 {
		t.Error("NewPlan did not copy its rule slice")
	}
}
