package raftsim

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/slab"
)

// ownedWorkload is a ten-client cluster with a short window. The clients
// move in lock step, one 2 ms round after another, and a round's client
// replies are on the wire for a quarter of it: the default warm-up
// captures between them, this one does not (requireOwnedInFlight).
func ownedWorkload() Workload {
	w := DefaultWorkload()
	w.Warmup = 500750 * time.Microsecond
	w.Measure = 300 * time.Millisecond
	w.StepBudget = 300_000
	return w
}

// requireOwnedInFlight runs a just-restored deployment on for less than
// one network latency: a request that completes in that time was answered
// by a ClientReply, an owned message, already in flight at the capture.
func requireOwnedInFlight(t *testing.T, d *deployment) {
	t.Helper()
	completed := func() (n uint64) {
		for _, c := range d.cs {
			n += c.Stats().Completed
		}
		return n
	}
	before := completed()
	d.eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
	if completed() == before {
		t.Fatal("no ClientReply was in flight at the capture: the test would prove nothing, pick another warm-up")
	}
}

func sameTrace(t *testing.T, label string, want, got []oracle.Event) {
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

// TestOwnedMessagesForkedEqualsCold is the raft twin of
// cluster.TestOwnedRepliesForkedEqualsCold: every single-recipient message
// goes back to the arena when its delivery has run (DESIGN.md §15), and
// with the pool poisoned a release too many shows as a diverging trace or
// as the slab's put-twice panic. A master captured with owned messages in
// flight, whose every fork delivers them again (the first through the
// live trains, which no delivery dirtied); a dup fault, which puts two
// deliveries behind one payload; corruption, which swaps the payload for a
// copy; and crashes with state loss: each forked three times equals its
// cold run.
func TestOwnedMessagesForkedEqualsCold(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w := ownedWorkload()
	space := allFaultsSpace(t)
	population := map[string]int64{DimClients: 10}

	probe, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := probe.newDeployment(10)
	d.Capture()
	d.Restore()
	requireOwnedInFlight(t, d)

	for _, tc := range []struct {
		name   string
		faults map[string]int64
	}{
		{"unarmed", nil},
		{"dup on one node's links", map[string]int64{plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2}},
		{"corrupt on one node's links", map[string]int64{plugin.DimCorruptMask: 0xA5, plugin.DimNetFaultFrom: 2}},
		{"crash with state loss", map[string]int64{plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(w)
			if err != nil {
				t.Fatal(err)
			}
			point := maps.Clone(population)
			maps.Copy(point, tc.faults)
			sc := space.New(point)
			coldRes, coldRep, coldTrace := r.RunTraced(sc)
			for fork := 0; fork < 3; fork++ {
				res, rep, trace := r.RunTracedFork(sc)
				sameTrace(t, tc.name, coldTrace, trace)
				if !reflect.DeepEqual(coldRes, res) || coldRep != rep {
					t.Errorf("fork %d differs from cold:\ncold: %+v %+v\nfork: %+v %+v", fork, coldRes, coldRep, res, rep)
				}
			}
		})
	}
}
