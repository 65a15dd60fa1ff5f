// Package faultinject is the paper's call-number fault schedule (§6), in
// the spirit of LFI (Marinescu, Banabic, Candea; USENIX ATC'10): a call
// site counts its calls, and bit (n mod Period) of a mask decides whether
// the n-th call is hit. The PBFT experiment is one such rule on the
// malicious client's "client.generateMAC" point; link faults use it too.
package faultinject

import "fmt"

// Action is what a firing rule does at its point.
type Action int

// ActNone means "do not inject at this call"; ActCorrupt hits the call.
const (
	ActNone Action = iota
	ActCorrupt
)

// Decision is what a rule does when its trigger matches.
type Decision struct{ Action Action }

// ModMask fires on call n when bit (n mod Period) of Mask is set. With
// Period=12 and a 12-bit mask this is exactly the hyperspace dimension
// of §6. A zero Period never fires.
type ModMask struct {
	Mask   uint64
	Period uint64
}

// Match reports whether the schedule fires at the zero-based call.
func (m ModMask) Match(call uint64) bool {
	return m.Period != 0 && m.Mask&(1<<(call%m.Period)) != 0
}

// Rule binds a schedule and a decision to a named injection point.
type Rule struct {
	Point    string
	Trigger  ModMask
	Decision Decision
}

// Plan is an immutable set of rules. The zero Plan injects nothing.
type Plan struct{ rules []Rule }

// NewPlan returns a plan with the given rules. The rule slice is copied.
func NewPlan(rules ...Rule) Plan {
	return Plan{rules: append([]Rule(nil), rules...)}
}

// Counter is one injection point's call counter and the schedule armed
// on it. It holds no pointer, so a struct copy captures it and assigning
// the copy back rolls it back.
type Counter struct {
	calls uint64
	fires ModMask
}

// Arm sets the counter's schedule from the plan's rules on point, keeping
// the call count: the first rule whose trigger matches a call decides it.
// The rules fold into one mask over the least common multiple of their
// periods, which must not exceed 64.
func (c *Counter) Arm(p Plan, point string) {
	period := uint64(1)
	for _, r := range p.rules {
		if r.Point == point && r.Trigger.Period != 0 {
			if period = lcm(period, min(r.Trigger.Period, 65)); period > 64 {
				panic(fmt.Sprintf("faultinject: the rules on %q repeat past 64 calls", point))
			}
		}
	}
	var mask uint64
	for call := uint64(0); call < period; call++ {
		for _, r := range p.rules {
			if r.Point == point && r.Trigger.Match(call) {
				if r.Decision.Action == ActCorrupt {
					mask |= 1 << call
				}
				break
			}
		}
	}
	c.fires = ModMask{Mask: mask, Period: period}
}

// Check consults the point, advancing its call counter, and reports
// whether the armed schedule hits this call.
func (c *Counter) Check() bool {
	call := c.calls
	c.calls++
	return c.fires.Match(call)
}

func lcm(a, b uint64) uint64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}
