package oracle

import (
	"reflect"
	"strings"
	"testing"
)

// commitStorm is a small deterministic commit/leader/crash stream.
var commitStorm = func() []Event {
	evs := []Event{leader(1, 2)}
	for seq := uint64(1); seq <= 4; seq++ {
		for node := 1; node <= 3; node++ {
			evs = append(evs, Event{Kind: EventCommit, Node: node, Seq: seq, Term: 2, Digest: 40 + seq})
		}
	}
	return append(evs, Event{Kind: EventCrash, Node: 2}, Event{Kind: EventRestart, Node: 2},
		Event{Kind: EventCommit, Node: 2, Seq: 5, Term: 2, Digest: 45})
}()

// observe feeds every stream to m in turn and returns m.
func observe(m *Model, streams ...[]Event) *Model {
	for _, evs := range streams {
		for _, ev := range evs {
			m.Observe(ev)
		}
	}
	return m
}

func digest(m *Model) Coverage {
	_, cov := m.Finish()
	return cov
}

func TestCoverageDeterministic(t *testing.T) {
	a, b := observe(newModel("raft"), commitStorm), observe(newModel("raft"), commitStorm)
	if digest(a) != digest(b) {
		t.Fatalf("identical streams diverge: %+v vs %+v", digest(a), digest(b))
	}
	if digest(a).IsZero() {
		t.Fatal("non-empty stream digested to zero")
	}
}

// TestCoverageChecker: coverage is feedback, not an invariant — a clean
// storm finishes with a coverage digest and no violations.
func TestCoverageChecker(t *testing.T) {
	v, cov := observe(newModel("raft"), commitStorm).Finish()
	if v != nil {
		t.Errorf("coverage is feedback, not an invariant; Finish = %v", v)
	}
	if cov.IsZero() {
		t.Error("clean storm finished without a coverage digest")
	}
}

func TestCoverageZeroContract(t *testing.T) {
	if !(Coverage{}).IsZero() {
		t.Fatal("zero value not IsZero")
	}
	// Even an event-free run has a computed digest (the FNV offset
	// basis), so checkpoint encoding can tell "measured, saw nothing"
	// from "decoded from a pre-coverage checkpoint".
	if digest(newModel("raft")).IsZero() {
		t.Fatal("empty model digested to zero")
	}
}

// coverageCase is two streams and which resolutions of their digests
// must agree.
type coverageCase struct {
	name                    string
	a, b                    []Event
	sameTimeline, sameBehav bool
}

func checkCoverage(t *testing.T, cases []coverageCase) {
	t.Helper()
	for _, tc := range cases {
		da, db := digest(observe(newModel("raft"), tc.a)), digest(observe(newModel("raft"), tc.b))
		if got := da.Timeline == db.Timeline; got != tc.sameTimeline {
			t.Errorf("%s: timelines equal = %t, want %t", tc.name, got, tc.sameTimeline)
		}
		if got := da.Behaviors == db.Behaviors && da.BehaviorCount == db.BehaviorCount; got != tc.sameBehav {
			t.Errorf("%s: behaviors equal = %t, want %t (%+v vs %+v)", tc.name, got, tc.sameBehav, da, db)
		}
	}
}

// TestCoverageTimelineOrderSensitive: Timeline is the determinism
// witness — any reordering changes it. Behaviors abstracts order away:
// two interleavings with the same transition set and the same per-node
// commit buckets collapse onto one Behaviors digest.
func TestCoverageTimelineOrderSensitive(t *testing.T) {
	var a, b []Event
	for i := uint64(0); i < 3; i++ {
		a = append(a, commit(1, i, 9), commit(2, i, 9))
		b = append(b, commit(2, i, 9), commit(1, i, 9))
	}
	checkCoverage(t, []coverageCase{
		{name: "reordered interleaving", a: a, b: b, sameBehav: true},
		{name: "one digest changed", a: a, b: append(a[:len(a)-1:len(a)-1], commit(2, 2, 8)), sameBehav: true},
		{name: "same stream", a: a, b: a, sameTimeline: true, sameBehav: true},
	})
}

// TestCoverageEdgeDedup: repeating an already-seen transition folds into
// Timeline but adds no behavior feature.
func TestCoverageEdgeDedup(t *testing.T) {
	lap := func(seq uint64) []Event { return []Event{commit(1, seq, seq), commit(2, seq, seq)} }
	first := digest(observe(newModel("raft"), lap(1)))
	second := digest(observe(newModel("raft"), lap(1), lap(2)))
	if first.Timeline == second.Timeline {
		t.Fatal("timeline ignored repeated transitions")
	}
	// The second lap re-walks existing edges; only the commit-count
	// buckets may move (1 commit -> 2 commits is the same log2 bucket
	// boundary crossing, so node 1 and 2 each move one bucket).
	if second.BehaviorCount < first.BehaviorCount {
		t.Fatalf("behavior count shrank: %d -> %d", first.BehaviorCount, second.BehaviorCount)
	}
	if second.BehaviorCount-first.BehaviorCount > 2 {
		t.Fatalf("repeated transitions minted %d new features", second.BehaviorCount-first.BehaviorCount)
	}
}

// TestCoverageCrashDistinguishesRuns: a run that exercised a crash, or
// reached a higher term, has a different behavior set than the same run
// without it — the signal the corpus schedules on.
func TestCoverageCrashDistinguishesRuns(t *testing.T) {
	plain := []Event{leader(1, 1), {Kind: EventCommit, Node: 1, Seq: 1, Term: 1, Digest: 3}}
	checkCoverage(t, []coverageCase{
		{name: "crash and restart", a: plain,
			b: append(plain[:2:2], Event{Kind: EventCrash, Node: 1}, Event{Kind: EventRestart, Node: 1})},
		{name: "a later term", a: plain, b: append(plain[:2:2], leader(1, 4))},
	})
}

// TestCoverageSnapshotRestore: a model restored to a snapshot digests a
// suffix exactly as a cold model digests the whole stream, whatever it
// saw before the restore.
func TestCoverageSnapshotRestore(t *testing.T) {
	prefix := []Event{leader(1, 1)}
	suffix := []Event{{Kind: EventCommit, Node: 1, Seq: 1, Term: 1, Digest: 5}}
	for _, tc := range []struct {
		name       string
		before     []Event // observed before the snapshot
		diverge    []Event // observed between the snapshot and the restore
		cold, fork [][]Event
	}{
		{name: "fresh snapshot, warm-up divergence", diverge: []Event{leader(3, 9), commit(3, 1, 7)},
			cold: [][]Event{commitStorm}, fork: [][]Event{commitStorm}},
		{name: "mid-stream rewind", before: prefix, diverge: []Event{{Kind: EventCrash, Node: 1}},
			cold: [][]Event{prefix, suffix}, fork: [][]Event{suffix}},
	} {
		m := observe(newModel("raft"), tc.before)
		snap := m.Snapshot()
		observe(m, tc.diverge)
		m.Restore(snap)
		if got, want := digest(observe(m, tc.fork...)), digest(observe(newModel("raft"), tc.cold...)); got != want {
			t.Errorf("%s: restored model diverged from cold: %+v vs %+v", tc.name, got, want)
		}
	}
}

// TestModelSnapshotRestore: Restore rewinds the verdicts, the log, the
// leaders and the coverage together — after a Park or without one — so a
// forked run finishes exactly as a cold run of the same stream.
func TestModelSnapshotRestore(t *testing.T) {
	warm := []Event{leader(0, 1), commit(0, 1, 0xa), commit(1, 1, 0xa), commit(1, 2, 0xb)}
	for _, tc := range []struct {
		name        string
		detour, run []Event
		park        bool
	}{
		{name: "clean detour, conflicting run",
			detour: []Event{commit(0, 2, 0xb), leader(1, 2)},
			run:    []Event{commit(0, 2, 0xc), leader(2, 1), commit(1, 1, 0xd)}},
		{name: "violating detour, clean run", park: true,
			detour: []Event{leader(2, 1), commit(2, 1, 0xe), commit(1, 1, 0xf), {Kind: EventCrash, Node: 0}},
			run:    []Event{commit(0, 2, 0xb), leader(1, 2)}},
	} {
		cold := observe(newModel("raft"), warm, tc.run)
		m := observe(newModel("raft"), warm)
		snap := m.Snapshot()
		observe(m, tc.detour)
		if tc.park {
			m.Park()
		}
		m.Restore(snap)
		observe(m, tc.run)
		gotV, gotC := m.Finish()
		wantV, wantC := cold.Finish()
		if !reflect.DeepEqual(gotV, wantV) || gotC != wantC {
			t.Errorf("%s: forked %v %+v, cold %v %+v", tc.name, gotV, gotC, wantV, wantC)
		}
	}
}

func TestCrashRestartEventStrings(t *testing.T) {
	if EventCrash.String() != "crash" || EventRestart.String() != "restart" {
		t.Errorf("kind strings: %q, %q", EventCrash, EventRestart)
	}
	ev := Event{Kind: EventCrash, Node: 4}
	if !strings.Contains(ev.String(), "crash node=4") {
		t.Errorf("crash event string = %q", ev.String())
	}
	ev = Event{Kind: EventRestart, Node: 4}
	if !strings.Contains(ev.String(), "restart node=4") {
		t.Errorf("restart event string = %q", ev.String())
	}
}

// TestCoverageNodeClamp: out-of-range nodes and kinds clamp instead of
// indexing out of the dense bitmap.
func TestCoverageNodeClamp(t *testing.T) {
	m := observe(newModel("raft"), []Event{
		{Kind: EventKind(200), Node: 100, Seq: 1},
		{Kind: EventCommit, Node: 100, Seq: 1, Digest: 1},
	})
	if digest(m).IsZero() {
		t.Fatal("clamped events vanished from the digest")
	}
}
