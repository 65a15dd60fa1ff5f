package oracle

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"avd/internal/slab"
)

// verdictCase is one event stream and the exact violations a Model under
// prefix must finish with.
type verdictCase struct {
	name   string
	prefix string
	events []Event
	want   []Violation
}

func newModel(prefix string) *Model { return New(new(slab.Pool), prefix) }

func checkVerdicts(t *testing.T, cases []verdictCase) {
	t.Helper()
	for _, tc := range cases {
		m := newModel(tc.prefix)
		for _, ev := range tc.events {
			m.Observe(ev)
		}
		if got, _ := m.Finish(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\ngot  %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

func commit(node int, seq, digest uint64) Event {
	return Event{Kind: EventCommit, Node: node, Seq: seq, Digest: digest}
}

func leader(node int, term uint64) Event { return Event{Kind: EventLeader, Node: node, Term: term} }

// TestAgreementClean: a consistent commit history — every node the same
// digest per seq, repeats included — raises nothing.
func TestAgreementClean(t *testing.T) {
	var agreed []Event
	for seq := uint64(1); seq <= 5; seq++ {
		for node := 0; node < 4; node++ {
			agreed = append(agreed, commit(node, seq, 100+seq))
		}
	}
	checkVerdicts(t, []verdictCase{
		{name: "every node commits the same digests", prefix: "pbft", events: agreed},
		{name: "a late duplicate of a committed entry", prefix: "pbft",
			events: append(agreed, commit(2, 3, 103))},
		{name: "leaders of distinct terms", prefix: "pbft",
			events: append([]Event{leader(0, 0), leader(1, 1)}, agreed...)},
	})
}

// TestAgreementCrossNodeConflict: two nodes committing different digests
// at one seq is the agreement violation, reported once with a count.
func TestAgreementCrossNodeConflict(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{name: "nodes 1 and 2 each conflict with node 0", prefix: "pbft",
			events: []Event{commit(0, 7, 0xa), commit(1, 7, 0xb), commit(2, 7, 0xc)},
			want: []Violation{{Invariant: "pbft/agreement",
				Detail: "nodes 0 and 1 committed different values at seq 7: 0xa vs 0xb", Count: 2}}},
		{name: "a node's second value is its own durability breach, not agreement", prefix: "pbft",
			events: []Event{commit(0, 7, 0xa), commit(0, 7, 0xb)},
			want: []Violation{{Invariant: "pbft/durability",
				Detail: "node 0 overwrote its committed entry at seq 7: digest 0xb replaced 0xa", Count: 1}}},
	})
}

// TestAgreementDurability: one node overwriting its own committed entry
// is the durability violation, distinct from cross-node agreement.
func TestAgreementDurability(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{name: "overwrite", prefix: "raft",
			events: []Event{commit(3, 2, 0x1), commit(3, 2, 0x2), commit(3, 2, 0x3)},
			want: []Violation{{Invariant: "raft/durability",
				Detail: "node 3 overwrote its committed entry at seq 2: digest 0x2 replaced 0x1", Count: 2}}},
		{name: "overwrite after an agreement trip, in first-trip order", prefix: "raft",
			events: []Event{commit(0, 4, 0x1), commit(1, 4, 0x2), commit(1, 4, 0x1)},
			want: []Violation{
				{Invariant: "raft/agreement", Detail: "nodes 0 and 1 committed different values at seq 4: 0x1 vs 0x2", Count: 1},
				{Invariant: "raft/durability", Detail: "node 1 overwrote its committed entry at seq 4: digest 0x1 replaced 0x2", Count: 1},
			}},
	})
}

// TestElectionSafety: one leader per term is fine (repeated claims by the
// same node included); a second node leading the same term trips, and
// commits do not confuse the check.
func TestElectionSafety(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{name: "legal leadership history", prefix: "raft",
			events: []Event{leader(0, 1), leader(0, 1), leader(1, 2), commit(9, 1, 1)}},
		{name: "two leaders of term 5", prefix: "raft",
			events: []Event{leader(0, 5), leader(2, 5), commit(9, 1, 1), leader(1, 5)},
			want:   []Violation{{Invariant: "raft/election-safety", Detail: "nodes 0 and 2 both led term 5", Count: 2}}},
	})
}

// TestLeaderTableFollowsTermsSeen: one leadership event at term 2^40
// allocates under a kilobyte — the leaders table holds the terms seen,
// not every term up to the largest — and election safety still trips on
// two leaders of one term, when the terms around it arrive out of order
// too.
func TestLeaderTableFollowsTermsSeen(t *testing.T) {
	const far = 1 << 40
	m := newModel("raft")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Observe(leader(0, far))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<10 {
		t.Errorf("a leadership event at term 2^40 allocated %d bytes, want under 1 KB", grew)
	}
	for _, ev := range []Event{leader(1, 7), leader(2, far+1), leader(1, 7), leader(3, 9), leader(2, far)} {
		m.Observe(ev)
	}
	got, _ := m.Finish()
	want := []Violation{{Invariant: "raft/election-safety", Detail: fmt.Sprintf("nodes 0 and 2 both led term %d", uint64(far)), Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations %+v, want %+v", got, want)
	}
}

// TestModelFinishOrder: Finish lists election safety first and the log
// invariants after it in first-trip order, whatever order they tripped
// in — the order checkpoint journals hold — with the first witness's
// Detail and every trip's Count.
func TestModelFinishOrder(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{name: "agreement trips before election safety", prefix: "raft",
			events: []Event{
				leader(0, 3), commit(0, 1, 0xaa), commit(1, 1, 0xbb),
				leader(1, 3), commit(2, 1, 0xcc), commit(1, 1, 0xdd), leader(2, 3),
			},
			want: []Violation{
				{Invariant: "raft/election-safety", Detail: "nodes 0 and 1 both led term 3", Count: 2},
				{Invariant: "raft/agreement", Detail: "nodes 0 and 1 committed different values at seq 1: 0xaa vs 0xbb", Count: 3},
				{Invariant: "raft/durability", Detail: "node 1 overwrote its committed entry at seq 1: digest 0xdd replaced 0xbb", Count: 1},
			}},
		{name: "durability trips before agreement", prefix: "register",
			events: []Event{commit(1, 2, 0x1), commit(1, 2, 0x2), commit(0, 2, 0x3)},
			want: []Violation{
				{Invariant: "register/durability", Detail: "node 1 overwrote its committed entry at seq 2: digest 0x2 replaced 0x1", Count: 1},
				{Invariant: "register/agreement", Detail: "nodes 1 and 0 committed different values at seq 2: 0x1 vs 0x3", Count: 1},
			}},
	})
	m := newModel("raft")
	m.Observe(leader(0, 1))
	m.Observe(leader(1, 1))
	got, _ := m.Finish()
	if want := []string{"raft/election-safety"}; !reflect.DeepEqual(Names(got), want) || !Violated(got, want[0]) || Violated(got, "raft/agreement") {
		t.Errorf("Names/Violated misreport %v", got)
	}
}

// TestRecorder: a traced model records the stream verbatim, up to the
// next Restore, and the events format as fixture lines.
func TestRecorder(t *testing.T) {
	m := newModel("raft")
	snap := m.Snapshot()
	rec := NewRecorder()
	m.Trace(rec)
	evs := []Event{
		{Kind: EventLeader, Node: 1, Term: 1},
		{Kind: EventCommit, Node: 1, Seq: 1, Term: 1, Digest: 42},
		{Kind: EventCommit, Node: 0, Seq: 1, Term: 1, Digest: 42},
	}
	for _, ev := range evs {
		m.Observe(ev)
	}
	m.Restore(snap)
	m.Observe(Event{Kind: EventCrash, Node: 2})
	if !reflect.DeepEqual(rec.Events(), evs) {
		t.Fatalf("recorded %v, want %v", rec.Events(), evs)
	}
	if s := evs[0].String(); s != "leader node=1 term=1" {
		t.Fatalf("leader event formats as %q", s)
	}
	if s := evs[1].String(); s != "commit node=1 seq=1 term=1 digest=0x2a" {
		t.Fatalf("commit event formats as %q", s)
	}
}
