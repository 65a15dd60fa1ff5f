// Package oracle turns AVD's raw fault campaigns into provable protocol
// violations. The paper's impact metric (§3) measures *how much* a
// scenario hurts the correct nodes, but not *which safety property*
// broke: a throughput collapse and an agreement violation score alike.
// Model-guided fuzzing of distributed systems (Gulcan et al., Meng &
// Roychoudhury; see PAPERS.md) checks every run against one abstract
// model of the protocol, so this package defines a small observation
// vocabulary — commit, leadership, crash, restart — that every shipped
// target emits during execution, and one Model, the spec-level replicated
// log, that folds a run's event stream into structured Violations and its
// coverage digest.
//
// A deployment owns one Model for its lifetime and rewinds it with the
// rest of its state before every run (DESIGN.md §14). Events arrive on the
// simulation goroutine; Finish hands back the verdicts once the run ends.
// Violations travel on core.Result, so explorers, checkpoints and the
// minimizer all see which invariants a scenario provably breaks.
package oracle

import (
	"fmt"
	"maps"
	"slices"
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

// Model is the spec-level model of a replicated log every target is
// checked against, one per deployment. It keeps
//
//   - one cell per log position: the first value committed there, its
//     committer, and a mask of the nodes whose applied value there is that
//     first one. A different value committed there by another node is
//     "<prefix>/agreement" (PBFT's agreement property; Raft's Log Matching /
//     State Machine Safety corollary over applied entries); a node
//     committing a different value at a position it already committed is
//     "<prefix>/durability" — a committed entry was lost and overwritten in
//     its history. The rare applied value that differs from the first, and
//     any value of a node the 64-bit mask has no bit for, is kept aside in
//     a map;
//   - the first leader per term: a second node leading that term is
//     "<prefix>/election-safety" (Raft §5.2). PBFT reports a view's
//     leadership only from the view's primary, so it never trips there;
//   - the coverage fold of the whole stream (coverage.go).
//
// Log positions, terms and node ids are small and dense in every shipped
// protocol, so the tables are flat slices rather than maps: observing an
// event is a few indexed loads, with zero allocation once the slices have
// grown to the run's high-water mark (perf_test.go's alloc guard). A
// window traced into Off folds nothing.
type Model struct {
	prefix string
	// pool stocks the log table between runs (Park): it grows with the
	// window's sequence numbers, and a parked deployment needs none.
	pool *slab.Pool
	//avdlint:ephemeral one window's trace: Trace sets it, Restore drops it
	rec *Recorder
	st  State
}

// State is a Model's run state: the one a run folds events into, and the
// copy Snapshot takes for Restore.
type State struct {
	log []seqCell // one cell per seq
	// strays holds the applied values no agree mask holds: a node's value
	// that differs from its cell's first, and every value of a node >= 64.
	strays  map[nodeSeq]uint64
	leaders []int32 // the first leader per term; -1 = none yet
	// found holds each tripped invariant once: election safety first, then
	// the log invariants in first-trip order — the order checkpoint
	// journals hold.
	found []Violation
	cov   fold
}

// seqCell is one log position: the first value committed there and its
// committer, and the nodes (bit n for node n) whose applied value there is
// that one.
type seqCell struct {
	digest uint64
	agree  uint64
	node   int32
	set    bool
	stray  bool // strays may hold a node's value at this seq
}

type nodeSeq struct {
	node int
	seq  uint64
}

const electionSafety = "/election-safety"

// Off is the recorder of a window nobody reads the verdicts or digest of:
// Trace(Off) makes the model ignore every event until the next Restore.
// The harness's baseline windows, which keep only their throughput, run
// this way.
var Off = &Recorder{}

// New returns an empty model whose violations are named "<prefix>/…", its
// parked table stocked in pool — the one the deployments of a harness
// share.
func New(pool *slab.Pool, prefix string) *Model {
	return &Model{prefix: prefix, pool: pool, st: State{cov: newFold()}}
}

// Trace records every event the model observes into rec until the next
// Restore; Trace(Off) ignores them instead.
func (m *Model) Trace(rec *Recorder) { m.rec = rec }

// Observe folds one event into the model.
func (m *Model) Observe(ev Event) {
	if m.rec != nil {
		if m.rec == Off {
			return
		}
		m.rec.events = append(m.rec.events, ev)
	}
	m.st.cov.observe(ev)
	switch ev.Kind {
	case EventCommit:
		m.commit(ev)
	case EventLeader:
		m.lead(ev)
	}
}

func (m *Model) commit(ev Event) {
	if n := int(ev.Seq) + 1; n > len(m.st.log) {
		m.st.log = append(m.st.log, make([]seqCell, n-len(m.st.log))...)
	}
	c := &m.st.log[ev.Seq]
	if !c.set {
		*c = seqCell{digest: ev.Digest, node: int32(ev.Node), set: true}
	}
	// A shift past the mask's width is 0: such a node lives in strays.
	bit, key := uint64(1)<<uint(ev.Node), nodeSeq{ev.Node, ev.Seq}
	prev, had := c.digest, c.agree&bit != 0
	if !had && c.stray {
		prev, had = m.st.strays[key]
	}
	if had && prev != ev.Digest {
		m.trip("/durability", fmt.Sprintf(
			"node %d overwrote its committed entry at seq %d: digest %#x replaced %#x",
			ev.Node, ev.Seq, ev.Digest, prev))
	}
	if c.digest != ev.Digest && int(c.node) != ev.Node {
		m.trip("/agreement", fmt.Sprintf(
			"nodes %d and %d committed different values at seq %d: %#x vs %#x",
			c.node, ev.Node, ev.Seq, c.digest, ev.Digest))
	}
	if ev.Digest == c.digest && bit != 0 {
		c.agree |= bit
		if c.stray {
			delete(m.st.strays, key)
		}
		return
	}
	c.agree &^= bit
	c.stray = true
	if m.st.strays == nil {
		m.st.strays = make(map[nodeSeq]uint64)
	}
	m.st.strays[key] = ev.Digest
}

func (m *Model) lead(ev Event) {
	term := int(ev.Term)
	for term >= len(m.st.leaders) {
		m.st.leaders = append(m.st.leaders, -1)
	}
	first := m.st.leaders[term]
	if first < 0 {
		m.st.leaders[term] = int32(ev.Node)
		return
	}
	if int(first) != ev.Node {
		m.trip(electionSafety, fmt.Sprintf("nodes %d and %d both led term %d", first, ev.Node, ev.Term))
	}
}

// trip records one breach of an invariant: its first witness is the
// Detail, later ones only count.
func (m *Model) trip(suffix, detail string) {
	invariant := m.prefix + suffix
	for i := range m.st.found {
		if m.st.found[i].Invariant == invariant {
			m.st.found[i].Count++
			return
		}
	}
	at := len(m.st.found)
	if suffix == electionSafety {
		at = 0
	}
	m.st.found = slices.Insert(m.st.found, at, Violation{Invariant: invariant, Detail: detail, Count: 1})
}

// Finish returns the run's violations, nil when it broke nothing, and its
// coverage digest.
func (m *Model) Finish() ([]Violation, Coverage) {
	return append([]Violation(nil), m.st.found...), m.st.cov.digest()
}

// Snapshot copies the run state for Restore.
func (m *Model) Snapshot() State {
	s := m.st
	s.log, s.strays = slices.Clone(s.log), maps.Clone(s.strays)
	s.leaders = slices.Clone(s.leaders)
	s.found = slices.Clone(s.found)
	s.cov.edges, s.cov.commits = slices.Clone(s.cov.edges), slices.Clone(s.cov.commits)
	return s
}

// Restore rolls the model back to a Snapshot and ends any trace. The log
// table is borrowed from the pool; the rest is copied in place.
func (m *Model) Restore(s State) {
	m.Park()
	m.rec = nil
	m.st.log, m.st.strays = append(slab.Borrow[seqCell](m.pool), s.log...), maps.Clone(s.strays)
	m.st.leaders = append(m.st.leaders[:0], s.leaders...)
	m.st.found = append(m.st.found[:0], s.found...)
	edges, commits := append(m.st.cov.edges[:0], s.cov.edges...), append(m.st.cov.commits[:0], s.cov.commits...)
	m.st.cov = s.cov
	m.st.cov.edges, m.st.cov.commits = edges, commits
}

// Park ends a run: the log table goes back to the pool, since the next
// Restore rebuilds it from the snapshot; only Restore may follow.
func (m *Model) Park() {
	if m.st.log != nil {
		slab.Return(m.pool, m.st.log)
	}
	m.st.log, m.st.strays = nil, nil
}

// Recorder holds the raw event stream of one traced window (Model.Trace),
// for golden-trace regression tests — a fixed (seed, scenario) pair must
// reproduce its event trace bit for bit — and for debugging minimized
// witnesses.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

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
