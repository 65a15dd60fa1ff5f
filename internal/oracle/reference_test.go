package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"avd/internal/slab"
)

// refModel is the Model with the log kept the way it was before the
// one-table log: the first commit per seq, and each node's applied log in
// a table of its own. Leadership, trips and coverage are the Model's own
// code, so the reference differs from the Model in the log tables alone.
type refModel struct {
	m       *Model
	commits []refCommit
	applied [][]refApplied
}

type refCommit struct {
	digest uint64
	node   int32
	set    bool
}

type refApplied struct {
	digest uint64
	set    bool
}

type refState struct {
	st      State
	commits []refCommit
	applied [][]refApplied
}

func newRefModel(prefix string) *refModel { return &refModel{m: New(new(slab.Pool), prefix)} }

func (r *refModel) Observe(ev Event) {
	r.m.st.cov.observe(ev)
	switch ev.Kind {
	case EventCommit:
		r.commit(ev)
	case EventLeader:
		r.m.lead(ev)
	}
}

func (r *refModel) commit(ev Event) {
	seq := int(ev.Seq)
	for ev.Node >= len(r.applied) {
		r.applied = append(r.applied, nil)
	}
	mine := r.applied[ev.Node]
	for seq >= len(mine) {
		mine = append(mine, refApplied{})
	}
	r.applied[ev.Node] = mine
	if prev := mine[seq]; prev.set && prev.digest != ev.Digest {
		r.m.trip("/durability", fmt.Sprintf(
			"node %d overwrote its committed entry at seq %d: digest %#x replaced %#x",
			ev.Node, ev.Seq, ev.Digest, prev.digest))
	}
	mine[seq] = refApplied{digest: ev.Digest, set: true}
	for seq >= len(r.commits) {
		r.commits = append(r.commits, refCommit{})
	}
	w := r.commits[seq]
	if !w.set {
		r.commits[seq] = refCommit{digest: ev.Digest, node: int32(ev.Node), set: true}
		return
	}
	if w.digest != ev.Digest && int(w.node) != ev.Node {
		r.m.trip("/agreement", fmt.Sprintf(
			"nodes %d and %d committed different values at seq %d: %#x vs %#x",
			w.node, ev.Node, ev.Seq, w.digest, ev.Digest))
	}
}

func (r *refModel) Finish() ([]Violation, Coverage) { return r.m.Finish() }

func (r *refModel) Snapshot() refState {
	s := refState{st: r.m.Snapshot(), commits: slices.Clone(r.commits)}
	for _, log := range r.applied {
		s.applied = append(s.applied, slices.Clone(log))
	}
	return s
}

func (r *refModel) Restore(s refState) {
	r.m.Restore(s.st)
	r.commits, r.applied = slices.Clone(s.commits), nil
	for _, log := range s.applied {
		r.applied = append(r.applied, slices.Clone(log))
	}
}

// refNodes is the node-id range of a decoded stream: past the agree
// mask's 64 bits, so the strays map holds whole nodes too.
const refNodes = 71

// decodeStream turns fuzz bytes into an event stream, four bytes an
// event: the kind, the node, the seq or term, and the committed value —
// the seq's usual one five times in eight, else one of three others, so
// streams repeat, diverge and re-converge.
func decodeStream(data []byte) []Event {
	var evs []Event
	for ; len(data) >= 4; data = data[4:] {
		node := int(data[1]) % refNodes
		switch data[0] % 4 {
		case 0, 1:
			seq := uint64(data[2] % 16)
			evs = append(evs, Event{Kind: EventCommit, Node: node, Seq: seq, Term: 1,
				Digest: seq<<4 | uint64(max(int(data[3]%8)-4, 0))})
		case 2:
			evs = append(evs, Event{Kind: EventLeader, Node: node, Term: uint64(data[2] % 8)})
		default:
			evs = append(evs, Event{Kind: EventCrash + EventKind(data[3]&1), Node: node})
		}
	}
	return evs
}

// FuzzModelMatchesReference: the one-table Model finishes every stream
// with the reference's verdicts and digest — each Violation's Detail,
// Count and order — before and after a Restore to a Snapshot taken at a
// random point. The checked-in corpus trips durability and agreement,
// and commits for node 65.
func FuzzModelMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, at uint8, data []byte) {
		evs := decodeStream(data)
		k := int(at) % (len(evs) + 1)
		m, ref := newModel("raft"), newRefModel("raft")
		feed := func(evs []Event) {
			for _, ev := range evs {
				m.Observe(ev)
				ref.Observe(ev)
			}
		}
		check := func(run string) {
			gotV, gotC := m.Finish()
			wantV, wantC := ref.Finish()
			if !reflect.DeepEqual(gotV, wantV) || gotC != wantC {
				t.Fatalf("%s of %v:\nmodel     %v %+v\nreference %v %+v", run, evs, gotV, gotC, wantV, wantC)
			}
		}
		feed(evs[:k])
		snap, refSnap := m.Snapshot(), ref.Snapshot()
		feed(evs[k:])
		check("the run")
		// Two more runs from the same snapshot: the tail backwards, then
		// forwards again.
		tail := slices.Clone(evs[k:])
		for run := range 2 {
			m.Park()
			m.Restore(snap)
			ref.Restore(refSnap)
			slices.Reverse(tail)
			feed(tail)
			check(fmt.Sprintf("restored run %d from event %d", run+1, k))
		}
	})
}

// TestModelNodeRenaming is the model-level metamorphic check: renaming
// the nodes of a stream by any bijection — across the agree mask's 64-bit
// edge — trips the same invariants as often. Only Detail and Coverage,
// which name nodes, may change.
func TestModelNodeRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tripped := make(map[string]int)
	for i := 0; i < 500; i++ {
		data := make([]byte, 4*rng.Intn(48))
		rng.Read(data)
		evs := decodeStream(data)
		perm := rng.Perm(refNodes)
		renamed := slices.Clone(evs)
		for j := range renamed {
			renamed[j].Node = perm[renamed[j].Node]
		}
		wantNames, want := verdicts(evs)
		gotNames, got := verdicts(renamed)
		if !reflect.DeepEqual(gotNames, wantNames) || !reflect.DeepEqual(got, want) {
			t.Fatalf("renaming nodes by %v changed the verdicts of %v:\nbefore %v\nafter  %v", perm, evs, want, got)
		}
		for name := range want {
			tripped[name]++
		}
	}
	for _, name := range []string{"raft/agreement", "raft/durability", "raft/election-safety"} {
		if tripped[name] == 0 {
			t.Errorf("no stream tripped %s: the check is vacuous for it", name)
		}
	}
}

// verdicts runs a stream through a fresh Model and returns its tripped
// invariants, by Names, and each one's Count.
func verdicts(evs []Event) ([]string, map[string]int) {
	m := newModel("raft")
	for _, ev := range evs {
		m.Observe(ev)
	}
	found, _ := m.Finish()
	counts := make(map[string]int, len(found))
	for _, v := range found {
		counts[v.Invariant] = v.Count
	}
	return Names(found), counts
}
