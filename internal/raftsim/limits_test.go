package raftsim

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"avd/internal/core"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// TestEntryLayout pins the log entry at 12 bytes: every node, capture and
// stocked buffer holds a log of them, so a wider field doubles what a
// parked Raft master keeps.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 12 {
		t.Fatalf("a log entry is %d bytes, want 12", got)
	}
}

// TestClientAddressLimit: an address past int32 cannot be a log entry's
// client, so NewClient refuses it. simnet.Addr is an int, so the case
// exists on 64-bit builds only.
func TestClientAddressLimit(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("every 32-bit address fits an entry")
	}
	past := int64(math.MaxInt32) + 1
	net := simnet.New(sim.New(1), simnet.Config{})
	_, err := NewClient(simnet.Addr(past), DefaultConfig(), DefaultClientConfig(), net)
	if err == nil || !strings.Contains(err.Error(), "overflows a log entry's 32 bits") {
		t.Fatalf("NewClient at address %d: %v, want the overflow refused", past, err)
	}
}

// overflowRunner is NewTarget's Runner over the default plugins, with set
// run on every deployment between its warm-up and its capture, so each
// run starts from what set left. Its windows are short and step-budgeted,
// so with a check removed the test fails instead of running on. The term
// case then exhausts memory all the same: the oracle's leader table is
// indexed by term.
func overflowRunner(t *testing.T, set func(*deployment)) *Runner {
	t.Helper()
	w := DefaultWorkload()
	w.Measure, w.StepBudget = 500*time.Millisecond, 200_000
	r := &Runner{w: w}
	r.Harness = core.NewHarness[int64, *deployment, Report](core.HarnessSpec[int64, *deployment]{
		Name:       "raft",
		Plugins:    DefaultPlugins(),
		Config:     w,
		ClientsDim: DimClients,
		Key:        populationOf,
		Build: func(clients int64) *deployment {
			d := r.newDeployment(clients)
			set(d)
			return d
		},
		Measure:    w.Measure,
		StepBudget: w.StepBudget,
		LatencyRef: w.LatencyRef,
	})
	return r
}

// runErrored runs sc as a one-test campaign and returns the error its row
// carries: the engine runs every test under safeRun, so a panic in the
// target becomes the row's Error.
func runErrored(t *testing.T, r *Runner, sc scenario.Scenario) string {
	t.Helper()
	eng, err := core.NewEngine(r, core.WithExplorer(core.NewListExplorer([]scenario.Scenario{sc})), core.WithBudget(1), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != 1 {
		t.Fatalf("campaign ran %d tests: %v", len(results), err)
	}
	return results[0].Error
}

// TestTermLimitFailsLoudly: with every node's term at the 32-bit limit, a
// leader flap forces an election, and the candidate's increment fails its
// test as an errored row instead of wrapping into a log entry's term.
func TestTermLimitFailsLoudly(t *testing.T) {
	r := overflowRunner(t, func(d *deployment) {
		for _, n := range d.nodes {
			n.term = math.MaxUint32
		}
	})
	sc := testSpace(t).New(map[string]int64{DimClients: 5, DimFlapIntervalMS: 100, DimFlapDownMS: 400})
	if got := runErrored(t, r, sc); !strings.Contains(got, "term 4294967295 overflows a log entry's 32 bits") {
		t.Fatalf("the row's error is %q, want the term overflow", got)
	}
}

// TestSeqLimitFailsLoudly: with every client's seq at the 32-bit limit,
// the request carrying it commits, and the client's next increment fails
// the test as an errored row instead of wrapping into a log entry's seq.
func TestSeqLimitFailsLoudly(t *testing.T) {
	r := overflowRunner(t, func(d *deployment) {
		for _, c := range d.cs {
			// The retry timer resends the request of retryFor: seq's now.
			c.seq, c.retryFor = math.MaxUint32, math.MaxUint32
		}
	})
	sc := testSpace(t).New(map[string]int64{DimClients: 5})
	if got := runErrored(t, r, sc); !strings.Contains(got, "seq 4294967295 overflows a log entry's 32 bits") {
		t.Fatalf("the row's error is %q, want the seq overflow", got)
	}
}
