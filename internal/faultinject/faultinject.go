// Package faultinject is a small library-level fault-injection framework in
// the spirit of LFI (Marinescu, Banabic, Candea; USENIX ATC'10), which the
// paper lists as one of AVD's testing tools.
//
// Code under test declares named injection points and consults the injector
// at each call. A Plan binds rules (trigger + action) to points; triggers
// decide per call number whether the action fires. The paper's PBFT
// experiment is expressed as a single rule on the malicious client's
// "client.generateMAC" point with a ModMask trigger: bit (n mod 12) of a
// 12-bit mask decides whether the n-th MAC computation is corrupted.
package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Action identifies what an injection does at a point. Interpreting the
// action is up to the instrumented call site (e.g. the MAC generator
// flips tag bits on ActCorrupt, the network drops a packet on ActDrop).
type Action int

// Supported actions. ActNone means "do not inject at this call".
const (
	ActNone Action = iota
	ActCorrupt
	ActDrop
	ActDelay
	ActError
)

// String returns a human-readable action name.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActCorrupt:
		return "corrupt"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActError:
		return "error"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is the outcome of consulting an injection point for one call.
type Decision struct {
	Action Action
	// Delay applies when Action == ActDelay.
	Delay time.Duration
	// Err applies when Action == ActError; the call site returns it.
	Err error
}

// none is the zero Decision, returned when no rule fires.
var none = Decision{}

// Trigger decides, from the zero-based call number at a point, whether a
// rule fires for that call.
type Trigger interface {
	// Match reports whether the rule fires at the given call number.
	Match(call uint64) bool
	// String describes the trigger for logs and reports.
	String() string
}

// Always fires on every call.
type Always struct{}

// Match implements Trigger.
func (Always) Match(uint64) bool { return true }

// String implements Trigger.
func (Always) String() string { return "always" }

// Never fires on no call. Useful as an explicit off switch in plans.
type Never struct{}

// Match implements Trigger.
func (Never) Match(uint64) bool { return false }

// String implements Trigger.
func (Never) String() string { return "never" }

// CallSet fires on an explicit set of call numbers.
type CallSet map[uint64]bool

// Match implements Trigger.
func (s CallSet) Match(call uint64) bool { return s[call] }

// String implements Trigger.
func (s CallSet) String() string {
	calls := make([]uint64, 0, len(s))
	for c, ok := range s {
		if ok {
			calls = append(calls, c)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i] < calls[j] })
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return "calls{" + strings.Join(parts, ",") + "}"
}

// After fires on every call numbered >= N.
type After struct{ N uint64 }

// Match implements Trigger.
func (a After) Match(call uint64) bool { return call >= a.N }

// String implements Trigger.
func (a After) String() string { return fmt.Sprintf("after(%d)", a.N) }

// EveryNth fires on calls where call % N == Offset. N must be > 0.
type EveryNth struct {
	N      uint64
	Offset uint64
}

// Match implements Trigger.
func (e EveryNth) Match(call uint64) bool {
	if e.N == 0 {
		return false
	}
	return call%e.N == e.Offset%e.N
}

// String implements Trigger.
func (e EveryNth) String() string { return fmt.Sprintf("every(%d,+%d)", e.N, e.Offset) }

// ModMask is the paper's MAC-corruption trigger: bit (call mod Period) of
// Mask decides whether the call is hit. With Period=12 and a 12-bit mask
// this is exactly the hyperspace dimension of §6.
type ModMask struct {
	Mask   uint64
	Period uint64
}

// Match implements Trigger.
func (m ModMask) Match(call uint64) bool {
	if m.Period == 0 {
		return false
	}
	return m.Mask&(1<<(call%m.Period)) != 0
}

// String implements Trigger.
func (m ModMask) String() string { return fmt.Sprintf("modmask(%#x mod %d)", m.Mask, m.Period) }

// Rule binds a trigger and a decision to a named injection point.
type Rule struct {
	Point    string
	Trigger  Trigger
	Decision Decision
}

// String describes the rule.
func (r Rule) String() string {
	return fmt.Sprintf("%s: %s -> %s", r.Point, r.Trigger, r.Decision.Action)
}

// Plan is an immutable set of rules. The zero Plan injects nothing.
type Plan struct {
	rules []Rule
}

// NewPlan returns a plan with the given rules. The rule slice is copied.
func NewPlan(rules ...Rule) Plan {
	cp := make([]Rule, len(rules))
	copy(cp, rules)
	return Plan{rules: cp}
}

// Rules returns a copy of the plan's rules.
func (p Plan) Rules() []Rule {
	cp := make([]Rule, len(p.rules))
	copy(cp, p.rules)
	return cp
}

// String summarizes the plan.
func (p Plan) String() string {
	if len(p.rules) == 0 {
		return "plan{}"
	}
	parts := make([]string, len(p.rules))
	for i, r := range p.rules {
		parts[i] = r.String()
	}
	return "plan{" + strings.Join(parts, "; ") + "}"
}

// Injector evaluates a plan against per-point call counters. Each simulated
// node owns its own injector, so call numbering is per node as in the
// paper ("the n-th call to the generateMAC function in the malicious
// client"). Injector is not safe for concurrent use; within a simulation
// all calls happen on the engine goroutine.
type Injector struct {
	points map[string]*Point
}

// Point is one named injection point's resolved state: its rules and
// call counter. Instrumented call sites that consult a point on a hot
// path resolve the handle once (Injector.Point) and Check it directly,
// skipping the per-call map lookup; the handle stays valid across
// SetPlan and counter restores.
type Point struct {
	rules []Rule
	calls uint64
}

// NewInjector returns an injector evaluating plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{points: make(map[string]*Point)}
	for _, r := range plan.rules {
		in.point(r.Point).rules = append(in.point(r.Point).rules, r)
	}
	return in
}

// point resolves (creating on first use) the named point.
func (in *Injector) point(name string) *Point {
	p, ok := in.points[name]
	if !ok {
		p = &Point{}
		in.points[name] = p
	}
	return p
}

// Point returns the long-lived handle for the named injection point.
func (in *Injector) Point(name string) *Point { return in.point(name) }

// Check consults the point, advancing its call counter, and returns the
// decision for this call (the first matching rule wins).
func (p *Point) Check() Decision {
	d, _ := p.CheckN()
	return d
}

// CheckN is Check but also returns the zero-based call number consumed.
func (p *Point) CheckN() (Decision, uint64) {
	call := p.calls
	p.calls++
	for _, r := range p.rules {
		if r.Trigger.Match(call) {
			return r.Decision, call
		}
	}
	return none, call
}

// SetPlan swaps the injector's rules while keeping every point's call
// counter. Snapshot/fork harnesses use this to arm a scenario's plan at
// measurement start: the counters have been advancing since deployment
// boot (instrumented call sites consult the injector unconditionally),
// and keeping them makes an armed fork behave exactly like a cold run
// that armed the same plan at the same instant.
func (in *Injector) SetPlan(plan Plan) {
	for _, p := range in.points {
		p.rules = p.rules[:0]
	}
	for _, r := range plan.rules {
		p := in.point(r.Point)
		p.rules = append(p.rules, r)
	}
}

// CounterSnapshot captures the per-point call counters.
func (in *Injector) CounterSnapshot() map[string]uint64 {
	cp := make(map[string]uint64, len(in.points))
	for k, p := range in.points {
		cp[k] = p.calls
	}
	return cp
}

// RestoreCounters rolls the per-point call counters back to a snapshot.
// Points created after the snapshot reset to zero; point handles remain
// valid.
func (in *Injector) RestoreCounters(snap map[string]uint64) {
	for k, p := range in.points {
		p.calls = snap[k]
	}
}

// Check consults the injection point, advancing its call counter, and
// returns the decision for this call (the first matching rule wins).
func (in *Injector) Check(point string) Decision {
	d, _ := in.CheckN(point)
	return d
}

// CheckN is Check but also returns the zero-based call number consumed.
func (in *Injector) CheckN(point string) (Decision, uint64) {
	return in.point(point).CheckN()
}

// Calls returns how many times the point has been consulted.
func (in *Injector) Calls(point string) uint64 { return in.point(point).calls }
