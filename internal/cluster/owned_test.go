package cluster

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/slab"
)

// ownedWorkload is the largest default population, captured with replies
// in flight: every fork of its master delivers them again. The closed-loop
// clients move in lock step, one 4 ms round after another, and replies are
// on the wire for half a millisecond of each — a round warm-up captures
// between rounds, this one does not (requireRepliesInFlight).
func ownedWorkload() (Workload, map[string]int64) {
	w := DefaultWorkload()
	w.Warmup = 102250 * time.Microsecond
	w.Measure = 300 * time.Millisecond
	return w, map[string]int64{plugin.DimCorrectClients: 250, plugin.DimMaliciousClients: 1}
}

// requireRepliesInFlight runs a just-captured deployment on for less than
// one network latency: a request that completes in that time was answered
// by replies already in flight at the capture.
func requireRepliesInFlight(t *testing.T, d *deployment) {
	t.Helper()
	completed := func() (n uint64) {
		for _, c := range d.clients {
			n += c.Stats().Completed
		}
		return n
	}
	before := completed()
	d.eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
	if completed() == before {
		t.Fatal("no reply was in flight at the capture: the test would prove nothing, pick another warm-up")
	}
}

func assertSameTrace(t *testing.T, label string, want, got []oracle.Event) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: empty reference trace", label)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: trace diverges at event %d: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestOwnedRepliesForkedEqualsCold: a reply goes back to the arena the
// moment its delivery has run (DESIGN.md §15), and with the pool
// poisoned a release too many shows as a diverging trace or as the slab's
// put-twice panic. A master
// captured with replies in flight, whose every fork delivers them again;
// a dup fault on a replica's links, which puts two deliveries behind one
// reply; crashes with state loss, which reset the last-reply table; and
// replies delayed past the clients' retry, which the replicas answer with
// copies out of that table: each forked three times equals its cold run.
func TestOwnedRepliesForkedEqualsCold(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w, population := ownedWorkload()
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), plugin.NewCrashRestart(), plugin.NewNetFaults(4), &plugin.Reorder{})
	if err != nil {
		t.Fatal(err)
	}
	probe := newRunner(t, w).newDeployment(masterKey{correct: 250, malicious: 1})
	probe.Capture()
	requireRepliesInFlight(t, probe)
	for _, tc := range []struct {
		name   string
		faults map[string]int64
	}{
		{"unarmed", nil},
		{"dup on one replica's links", map[string]int64{plugin.DimDupMask: 0xFF, plugin.DimNetFaultFrom: 2}},
		{"crash with state loss", map[string]int64{plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1}},
		{"late replies, retransmitted", map[string]int64{plugin.DimReorderPct: 50, plugin.DimReorderDelayMS: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRunner(t, w)
			point := maps.Clone(population)
			maps.Copy(point, tc.faults)
			sc := space.New(point)
			coldRes, coldRep, coldTrace := r.RunTraced(sc)
			for fork := 0; fork < 3; fork++ {
				res, rep, trace := r.RunTracedFork(sc)
				assertSameTrace(t, tc.name, coldTrace, trace)
				if !reflect.DeepEqual(coldRes, res) || !reflect.DeepEqual(coldRep, rep) {
					t.Errorf("fork %d differs from cold:\ncold: %+v %+v\nfork: %+v %+v", fork, coldRes, coldRep, res, rep)
				}
			}
		})
	}
}

// TestRunOnFromCaptureThenFork: a deployment that runs straight on from
// its capture delivers what was in flight through the live trains, not
// through a restore's clones. Those must not own their replies either, or
// the fork that follows would read released memory.
func TestRunOnFromCaptureThenFork(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w, population := ownedWorkload()
	r := newRunner(t, w)
	sc := paperSpace(t).New(population)
	fork := func(d *deployment) (core.Result, Report, []oracle.Event) {
		rec := oracle.NewRecorder()
		d.Restore()
		d.Arm(sc, true, rec)
		res, rep := d.Measure(sc, w.Measure, 0)
		return res, rep, rec.Events()
	}
	cold := r.newDeployment(populationOf(sc))
	cold.Capture()
	wantRes, wantRep, wantTrace := fork(cold)
	cold.park()

	d := r.newDeployment(populationOf(sc))
	d.Capture()
	requireRepliesInFlight(t, d)
	d.eng.RunFor(w.Measure)
	res, rep, trace := fork(d)
	assertSameTrace(t, "fork after running on", wantTrace, trace)
	if !reflect.DeepEqual(wantRes, res) || !reflect.DeepEqual(wantRep, rep) {
		t.Errorf("fork after running on differs from cold:\ncold: %+v %+v\nfork: %+v %+v", wantRes, wantRep, res, rep)
	}
}

// sharedWorkload captures its masters with commit votes and replies in
// flight (requireVotesInFlight), and its window is long enough for the
// view-change timers to fire.
func sharedWorkload() Workload {
	w := DefaultWorkload()
	w.Warmup = 104250 * time.Microsecond
	w.Measure = 1500 * time.Millisecond
	return w
}

// requireVotesInFlight runs a just-captured deployment on for less than
// one network latency: a batch that executes in that time was committed
// by votes already in flight at the capture.
func requireVotesInFlight(t *testing.T, d *deployment) {
	t.Helper()
	executed := func() (n uint64) {
		for _, rp := range d.replicas {
			n += rp.Stats().BatchesExecuted
		}
		return n
	}
	before := executed()
	d.eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
	if executed() == before {
		t.Fatal("no vote was in flight at the capture: the test would prove nothing, pick another warm-up")
	}
}

// TestSharedPayloadsForkedEqualsCold: requests, votes, pre-prepares and
// their authenticators go back to the arena when their last holder drops
// them (DESIGN.md §15), and with the pool poisoned a release too many
// shows as a diverging trace or as the slab's put-twice panic. Each case
// forked three times equals its cold run: a master captured with votes
// and replies in flight, whose every fork delivers them again; a MAC-mask
// attack whose poisoned batches heal through retransmissions and whose
// view changes re-propose prepared batches; crashes with state loss,
// which free the whole log; dup and corrupt faults on one replica's links,
// which add a holder and swap a payload for a copy; and a slow primary
// colluding with the malicious client, whose single-request batches are
// cut from the pending buffer.
func TestSharedPayloadsForkedEqualsCold(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w := sharedWorkload()
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), plugin.NewCrashRestart(), plugin.NewNetFaults(4), &plugin.SlowPrimary{})
	if err != nil {
		t.Fatal(err)
	}
	probe := newRunner(t, w).newDeployment(masterKey{correct: 250, malicious: 1})
	probe.Capture()
	requireVotesInFlight(t, probe)
	for _, tc := range []struct {
		name  string
		point map[string]int64
		// exercised reports whether the cold run did what the case is for.
		exercised func(Report) bool
	}{
		{"unarmed, votes in flight at the capture",
			map[string]int64{plugin.DimCorrectClients: 250},
			func(rep Report) bool { return rep.CorrectCompleted > 0 }},
		{"MAC mask: healing, retransmissions, view changes",
			map[string]int64{plugin.DimCorrectClients: 30, plugin.DimMACMask: int64(graycode.Decode(0xBBB))},
			func(rep Report) bool {
				return rep.Retransmissions > 0 && rep.RejectedBatches > 0 && rep.ViewsInstalled > 0
			}},
		{"crash with state loss",
			map[string]int64{plugin.DimCorrectClients: 30, plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1},
			func(rep Report) bool { return rep.Crashes > 0 }},
		{"dup and corrupt on one replica's links",
			map[string]int64{plugin.DimCorrectClients: 30, plugin.DimDupMask: 0xFF, plugin.DimCorruptMask: 0x3C, plugin.DimNetFaultFrom: 1},
			func(rep Report) bool { return rep.CorrectCompleted > 0 }},
		{"slow primary colluding",
			map[string]int64{plugin.DimCorrectClients: 30, plugin.DimSlowPrimary: 1, plugin.DimCollude: 1, plugin.DimSlowIntervalMS: 400},
			func(rep Report) bool { return rep.MaliciousCompleted > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRunner(t, w)
			point := map[string]int64{plugin.DimMaliciousClients: 1}
			maps.Copy(point, tc.point)
			sc := space.New(point)
			coldRes, coldRep, coldTrace := r.RunTraced(sc)
			if !tc.exercised(coldRep) {
				t.Fatalf("the cold run does not exercise the case: %+v", coldRep)
			}
			for fork := 0; fork < 3; fork++ {
				res, rep, trace := r.RunTracedFork(sc)
				assertSameTrace(t, tc.name, coldTrace, trace)
				if !reflect.DeepEqual(coldRes, res) || !reflect.DeepEqual(coldRep, rep) {
					t.Errorf("fork %d differs from cold:\ncold: %+v %+v\nfork: %+v %+v", fork, coldRes, coldRep, res, rep)
				}
			}
		})
	}
}
