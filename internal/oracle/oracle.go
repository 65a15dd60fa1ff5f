// Package oracle turns AVD's raw fault campaigns into provable protocol
// violations. The paper's impact metric (§3) measures *how much* a
// scenario hurts the correct nodes, but not *which safety property*
// broke: a throughput collapse and an agreement violation score alike.
// Model-guided fuzzing of distributed systems (Gulcan et al., Meng &
// Roychoudhury; see PAPERS.md) shows that explicit protocol oracles are
// what make a degraded run actionable, so this package defines a small
// observation vocabulary — commit, leadership — that both shipped
// targets emit during execution, and Checkers that fold the per-run
// event stream into structured Violations.
//
// A Checker instance observes exactly one run: the deployment harness
// creates fresh checkers per test (runs execute concurrently under
// parallel engines), feeds them events from the simulation goroutine,
// and asks Finish for the violations once the run ends. Violations
// travel on core.Result, so explorers, checkpoints and the minimizer all
// see which invariants a scenario provably breaks.
package oracle

import (
	"fmt"
	"sort"

	"avd/internal/slab"
)

// EventKind classifies one protocol observation.
type EventKind uint8

// Event kinds. The vocabulary is deliberately protocol-neutral: a PBFT
// replica executing a batch and a Raft node applying a log entry both
// report EventCommit; a Raft node winning an election and a PBFT
// replica installing a view it is primary of both report EventLeader.
const (
	// EventCommit: Node irrevocably committed the value identified by
	// Digest at log position Seq. Term carries the view/term it was
	// committed in (informational).
	EventCommit EventKind = iota + 1
	// EventLeader: Node assumed leadership for Term.
	EventLeader
	// EventCrash: Node was halted by an injected crash fault. Emitted by
	// the crash-restart attackers so schedule-level fault activity shows
	// up in the abstract timeline the coverage signal folds.
	EventCrash
	// EventRestart: Node came back from an injected crash.
	EventRestart
)

// String names the kind for traces and fixtures.
func (k EventKind) String() string {
	switch k {
	case EventCommit:
		return "commit"
	case EventLeader:
		return "leader"
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one protocol observation from a run, emitted on the
// simulation goroutine in deterministic order.
type Event struct {
	Kind   EventKind
	Node   int
	Seq    uint64 // log position (EventCommit)
	Term   uint64 // term or view
	Digest uint64 // committed-value identity (EventCommit)
}

// String formats the event as one fixture line.
func (e Event) String() string {
	switch e.Kind {
	case EventCommit:
		return fmt.Sprintf("commit node=%d seq=%d term=%d digest=%#x", e.Node, e.Seq, e.Term, e.Digest)
	case EventLeader:
		return fmt.Sprintf("leader node=%d term=%d", e.Node, e.Term)
	case EventCrash:
		return fmt.Sprintf("crash node=%d", e.Node)
	case EventRestart:
		return fmt.Sprintf("restart node=%d", e.Node)
	default:
		return fmt.Sprintf("%s node=%d seq=%d term=%d digest=%#x", e.Kind, e.Node, e.Seq, e.Term, e.Digest)
	}
}

// Violation is one broken protocol invariant, aggregated over a run: the
// first witness plus how often the invariant tripped.
type Violation struct {
	// Invariant names the broken property, e.g. "pbft/agreement" or
	// "raft/election-safety".
	Invariant string
	// Detail describes the first witness observed.
	Detail string
	// Count is the number of times the invariant tripped during the run.
	Count int
}

// String formats the violation for reports.
func (v Violation) String() string {
	if v.Count > 1 {
		return fmt.Sprintf("%s (x%d): %s", v.Invariant, v.Count, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// Checker observes one run's event stream and reports the invariants it
// saw broken. Implementations are not safe for concurrent use and must
// not be reused across runs; Observe is called on the simulation
// goroutine in event order, Finish once after the run ends.
type Checker interface {
	// Name identifies the checker in reports.
	Name() string
	// Observe folds one event into the checker's state.
	Observe(ev Event)
	// Finish flushes end-of-run checks and returns the violations found,
	// in a deterministic order.
	Finish() []Violation
}

// Rewindable is implemented by checkers that can take part in
// snapshot/fork execution (DESIGN.md §8): SnapshotState captures the
// checker's observation state at the warm point and RestoreState rolls
// it back, so a forked run's Finish sees exactly what a cold run's
// would. The state value is opaque to callers and owned by the checker.
type Rewindable interface {
	SnapshotState() any
	RestoreState(st any)
}

// Set fans one event stream out to several checkers and concatenates
// their findings in registration order. A Set is bound to one deployment
// but — via Snapshot/Restore and per-run Attach — serves many runs when
// the deployment executes forks from a warm snapshot.
type Set struct {
	checkers []Checker
	base     int // checkers[:base] are deployment-bound; the rest per-run
}

// NewSet builds a set over the given checkers (nils are skipped).
func NewSet(checkers ...Checker) *Set {
	s := &Set{}
	for _, c := range checkers {
		if c != nil {
			s.checkers = append(s.checkers, c)
		}
	}
	s.base = len(s.checkers)
	return s
}

// Observe feeds one event to every checker.
func (s *Set) Observe(ev Event) {
	for _, c := range s.checkers {
		c.Observe(ev)
	}
}

// Finish collects every checker's violations in registration order.
func (s *Set) Finish() []Violation {
	var out []Violation
	for _, c := range s.checkers {
		out = append(out, c.Finish()...)
	}
	return out
}

// Attach adds per-run checkers (e.g. a trace Recorder for one forked
// run). Detach removes them again; the deployment-bound base set is
// untouched.
func (s *Set) Attach(extra ...Checker) {
	for _, c := range extra {
		if c != nil {
			s.checkers = append(s.checkers, c)
		}
	}
}

// Detach removes every checker added by Attach.
func (s *Set) Detach() {
	for i := s.base; i < len(s.checkers); i++ {
		s.checkers[i] = nil
	}
	s.checkers = s.checkers[:s.base]
}

// Snapshot captures the state of every base checker. It returns nil
// entries for checkers that do not implement Rewindable; Restore skips
// those (their post-fork state is then undefined — fork-capable
// harnesses use rewindable checkers only).
func (s *Set) Snapshot() []any {
	out := make([]any, s.base)
	for i, c := range s.checkers[:s.base] {
		if r, ok := c.(Rewindable); ok {
			out[i] = r.SnapshotState()
		}
	}
	return out
}

// Restore rolls every base checker back to the paired Snapshot and
// detaches any per-run checkers.
func (s *Set) Restore(st []any) {
	s.Detach()
	for i, c := range s.checkers[:s.base] {
		if st[i] == nil {
			continue
		}
		c.(Rewindable).RestoreState(st[i])
	}
}

// Park ends a run for the base checkers that hold run-sized tables: they
// hand the tables to their scratch pool, since the next Restore rebuilds
// them from the snapshot anyway.
func (s *Set) Park() {
	for _, c := range s.checkers[:s.base] {
		if p, ok := c.(interface{ Park() }); ok {
			p.Park()
		}
	}
}

// violationAgg aggregates repeated trips of one invariant: first witness
// wins the Detail, later trips only bump the count. Runs that break
// nothing never touch it, so it stays a small ordered slice.
type violationAgg struct {
	found []Violation
}

func newViolationAgg() violationAgg { return violationAgg{} }

func (a *violationAgg) trip(invariant, detail string) {
	for i := range a.found {
		if a.found[i].Invariant == invariant {
			a.found[i].Count++
			return
		}
	}
	a.found = append(a.found, Violation{Invariant: invariant, Detail: detail, Count: 1})
}

func (a *violationAgg) violations() []Violation {
	out := make([]Violation, 0, len(a.found))
	return append(out, a.found...)
}

// snapshot/restore support the fork path; the slice is tiny (one entry
// per distinct invariant tripped).
func (a *violationAgg) snapshot() []Violation { return append([]Violation(nil), a.found...) }
func (a *violationAgg) restore(st []Violation) {
	a.found = append(a.found[:0], st...)
}

// Agreement checks the safety core shared by both shipped protocols:
// once any node commits a value at a log position, no node — including
// itself — may commit a different value there.
//
//   - "<prefix>/agreement": two distinct nodes committed different
//     digests at the same sequence number. For PBFT this is the paper's
//     agreement property (no two correct replicas execute different
//     batches at a sequence number); for Raft it is the Log Matching /
//     State Machine Safety corollary over applied entries.
//   - "<prefix>/durability": one node re-committed a different digest at
//     a position it had already committed — a committed request was lost
//     and overwritten in that node's history.
//
// Sequence numbers and node ids are small and dense in both shipped
// protocols (seqs start at 1 and advance with execution), so the
// checkers index flat slices instead of hashing into maps: observing a
// commit is two indexed loads in the steady state, with zero allocation
// once the slices have grown to the run's high-water mark (the alloc
// guard in perf_test.go enforces this).
type Agreement struct {
	prefix string
	// first commit seen per seq: digest and the node that made it
	// (node < 0 when the slot is empty).
	commits []commitCell
	// perNode tracks each node's own committed digests by seq, catching
	// local overwrites even after a cross-node conflict already tripped.
	perNode [][]digestCell
	agg     violationAgg
	// pool stocks the tables between runs (Park): they grow with the
	// window's sequence numbers, and a parked deployment needs none.
	pool *slab.Pool
}

type commitCell struct {
	digest uint64
	node   int32
	set    bool
}

type digestCell struct {
	digest uint64
	set    bool
}

// NewAgreement returns an agreement checker whose violations are named
// "<prefix>/agreement" and "<prefix>/durability".
func NewAgreement(prefix string) *Agreement {
	return NewAgreementIn(new(slab.Pool), prefix)
}

// NewAgreementIn is NewAgreement with the parked tables stocked in pool —
// the one the deployments of a harness Runner share — instead of a
// private pool.
func NewAgreementIn(pool *slab.Pool, prefix string) *Agreement {
	return &Agreement{prefix: prefix, agg: newViolationAgg(), pool: pool}
}

// Park hands the tables to the pool; only RestoreState may follow. The
// order mirrors RestoreState's borrows, so under one worker every table
// gets its own backing array back.
func (c *Agreement) Park() {
	for i := len(c.perNode) - 1; i >= 0; i-- {
		slab.Return(c.pool, c.perNode[i])
		c.perNode[i] = nil
	}
	c.perNode = c.perNode[:0]
	if c.commits != nil {
		slab.Return(c.pool, c.commits)
		c.commits = nil
	}
}

var _ Checker = (*Agreement)(nil)
var _ Rewindable = (*Agreement)(nil)

// Name implements Checker.
func (c *Agreement) Name() string { return c.prefix + "/agreement" }

// Observe implements Checker.
func (c *Agreement) Observe(ev Event) {
	if ev.Kind != EventCommit {
		return
	}
	seq := int(ev.Seq)
	for ev.Node >= len(c.perNode) {
		c.perNode = append(c.perNode, nil)
	}
	mine := c.perNode[ev.Node]
	for seq >= len(mine) {
		mine = append(mine, digestCell{})
	}
	c.perNode[ev.Node] = mine
	if prev := mine[seq]; prev.set && prev.digest != ev.Digest {
		c.agg.trip(c.prefix+"/durability", fmt.Sprintf(
			"node %d overwrote its committed entry at seq %d: digest %#x replaced %#x",
			ev.Node, ev.Seq, ev.Digest, prev.digest))
	}
	mine[seq] = digestCell{digest: ev.Digest, set: true}
	for seq >= len(c.commits) {
		c.commits = append(c.commits, commitCell{})
	}
	w := c.commits[seq]
	if !w.set {
		c.commits[seq] = commitCell{digest: ev.Digest, node: int32(ev.Node), set: true}
		return
	}
	if w.digest != ev.Digest && int(w.node) != ev.Node {
		c.agg.trip(c.prefix+"/agreement", fmt.Sprintf(
			"nodes %d and %d committed different values at seq %d: %#x vs %#x",
			w.node, ev.Node, ev.Seq, w.digest, ev.Digest))
	}
}

// Finish implements Checker.
func (c *Agreement) Finish() []Violation { return c.agg.violations() }

// agreementState is the Rewindable capture of an Agreement checker.
type agreementState struct {
	commits []commitCell
	perNode [][]digestCell
	agg     []Violation
}

// SnapshotState implements Rewindable.
func (c *Agreement) SnapshotState() any {
	st := &agreementState{
		commits: append([]commitCell(nil), c.commits...),
		perNode: make([][]digestCell, len(c.perNode)),
		agg:     c.agg.snapshot(),
	}
	for i, mine := range c.perNode {
		st.perNode[i] = append([]digestCell(nil), mine...)
	}
	return st
}

// RestoreState implements Rewindable.
func (c *Agreement) RestoreState(v any) {
	st := v.(*agreementState)
	c.Park()
	c.commits = append(slab.Borrow[commitCell](c.pool), st.commits...)
	for _, mine := range st.perNode {
		c.perNode = append(c.perNode, append(slab.Borrow[digestCell](c.pool), mine...))
	}
	c.agg.restore(st.agg)
}

// ElectionSafety checks Raft's Election Safety property: at most one
// node assumes leadership in any given term (§5.2 of the Raft paper).
type ElectionSafety struct {
	prefix  string
	leaders []int32 // term -> first node that led it (-1 = none yet)
	agg     violationAgg
}

// NewElectionSafety returns an election-safety checker whose violation
// is named "<prefix>/election-safety".
func NewElectionSafety(prefix string) *ElectionSafety {
	return &ElectionSafety{prefix: prefix, agg: newViolationAgg()}
}

var _ Checker = (*ElectionSafety)(nil)
var _ Rewindable = (*ElectionSafety)(nil)

// Name implements Checker.
func (c *ElectionSafety) Name() string { return c.prefix + "/election-safety" }

// Observe implements Checker.
func (c *ElectionSafety) Observe(ev Event) {
	if ev.Kind != EventLeader {
		return
	}
	term := int(ev.Term)
	for term >= len(c.leaders) {
		c.leaders = append(c.leaders, -1)
	}
	first := c.leaders[term]
	if first < 0 {
		c.leaders[term] = int32(ev.Node)
		return
	}
	if int(first) != ev.Node {
		c.agg.trip(c.prefix+"/election-safety", fmt.Sprintf(
			"nodes %d and %d both led term %d", first, ev.Node, ev.Term))
	}
}

// Finish implements Checker.
func (c *ElectionSafety) Finish() []Violation { return c.agg.violations() }

// electionState is the Rewindable capture of an ElectionSafety checker.
type electionState struct {
	leaders []int32
	agg     []Violation
}

// SnapshotState implements Rewindable.
func (c *ElectionSafety) SnapshotState() any {
	return &electionState{leaders: append([]int32(nil), c.leaders...), agg: c.agg.snapshot()}
}

// RestoreState implements Rewindable.
func (c *ElectionSafety) RestoreState(v any) {
	st := v.(*electionState)
	c.leaders = append(c.leaders[:0], st.leaders...)
	c.agg.restore(st.agg)
}

// Recorder captures the raw event stream of a run. It never reports
// violations; it exists for golden-trace regression tests (a fixed
// (seed, scenario) pair must reproduce its event trace bit-for-bit) and
// for debugging minimized witnesses.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

var _ Checker = (*Recorder)(nil)

// Name implements Checker.
func (r *Recorder) Name() string { return "recorder" }

// Observe implements Checker.
func (r *Recorder) Observe(ev Event) { r.events = append(r.events, ev) }

// Finish implements Checker; a recorder has no invariants.
func (r *Recorder) Finish() []Violation { return nil }

// Events returns the recorded stream in observation order.
func (r *Recorder) Events() []Event { return r.events }

// Violated reports whether the named invariant appears in the list.
func Violated(violations []Violation, invariant string) bool {
	for _, v := range violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Names returns the sorted distinct invariant names in the list.
func Names(violations []Violation) []string {
	seen := make(map[string]bool, len(violations))
	var out []string
	for _, v := range violations {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			out = append(out, v.Invariant)
		}
	}
	sort.Strings(out)
	return out
}
