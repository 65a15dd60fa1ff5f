package raftsim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/slab"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// goldenWorkload is the fixed (workload, scenario) pair of the golden
// trace: small enough that the fixture stays reviewable, adversarial
// enough (a leader-flap storm over three clients) that the trace covers
// elections, leadership changes, and commits.
func goldenWorkload() (Workload, map[string]int64) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 500 * time.Millisecond
	// A slow WAN link throttles the single closed-loop client, keeping
	// the commit stream reviewable: dozens of commits per leadership
	// epoch rather than thousands. The fast retry lets the client find
	// the successor leader inside the measurement window.
	w.Net.BaseLatency = 2 * time.Millisecond
	w.Client.Retry = 20 * time.Millisecond
	w.Client.RetryCap = 40 * time.Millisecond
	// One mid-run isolation of the leader: the trace spans two
	// leadership epochs with commits in both.
	return w, map[string]int64{
		DimClients:        1,
		DimFlapIntervalMS: 400,
		DimFlapDownMS:     200,
	}
}

// goldenSpace allows a single-client deployment, below the plugin
// space's 5-client floor.
func goldenSpace(tb testing.TB) *scenario.Space {
	tb.Helper()
	space, err := scenario.NewSpace(
		scenario.Dimension{Name: DimClients, Min: 1, Max: 50, Step: 1},
		scenario.Dimension{Name: DimFlapIntervalMS, Min: 0, Max: 1000, Step: 50},
		scenario.Dimension{Name: DimFlapDownMS, Min: 0, Max: 400, Step: 25},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// TestGoldenTrace: the oracle-event trace of a fixed (seed, scenario)
// pair must match the committed fixture byte for byte. Any change to
// sim/simnet scheduling, raftsim protocol logic, or the harness's event
// wiring that perturbs determinism breaks this test loudly; if the
// change is intentional, regenerate with
//
//	go test ./internal/raftsim -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	w, point := goldenWorkload()
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := goldenSpace(t).New(point)
	_, _, events := r.RunTraced(sc)
	checkGolden(t, sc, events)
}

// TestGoldenTraceSplitTrains: the fixture was recorded when every message
// delivery was a queue event of its own, and sim.SetSplitTrains brings
// that engine back — it must still produce the fixture, the same bytes
// TestGoldenTrace gets with a fan-out's deliveries riding one event.
func TestGoldenTraceSplitTrains(t *testing.T) {
	sim.SetSplitTrains(true)
	defer sim.SetSplitTrains(false)
	TestGoldenTrace(t)
}

// TestGoldenTraceEagerResets: and when every election-timer re-arm was a
// Stop and a Schedule, which sim.SetEagerResets makes of Engine.Reset again.
func TestGoldenTraceEagerResets(t *testing.T) {
	sim.SetEagerResets(true)
	defer sim.SetEagerResets(false)
	TestGoldenTrace(t)
}

// TestGoldenTracePoisonedForks replays the golden pair through the fork
// path with the slab pool's poison hook on and forks of two other client
// counts interleaved: every chunk the golden master's windows carve was
// last used by another master and comes back as 0xA5 garbage, so the
// fixture only matches if every object is fully initialized by its call
// site and nothing reads a window's objects after its master parked
// (DESIGN.md §20).
func TestGoldenTracePoisonedForks(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w, point := goldenWorkload()
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space := goldenSpace(t)
	sc := space.New(point)
	for round := 0; round < 2; round++ {
		for _, clients := range []int64{3, 7} {
			r.Run(space.New(map[string]int64{DimClients: clients, DimFlapIntervalMS: 200, DimFlapDownMS: 100}))
		}
		_, _, events := r.RunTraced(sc)
		checkGolden(t, sc, events)
	}
}

// checkGolden compares a traced run of the golden pair against the
// committed fixture (rewriting it under -update).
func checkGolden(t *testing.T, sc scenario.Scenario, events []oracle.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	var sb strings.Builder
	sb.WriteString("# golden oracle-event trace: raftsim seed=1 " + sc.Key() + "\n")
	for _, ev := range events {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	got := sb.String()

	path := filepath.Join("testdata", "golden_trace.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, len(events))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	if got == string(want) {
		return
	}
	// Locate the first diverging line for a useful failure message.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace diverged from fixture at line %d:\n  got:  %s\n  want: %s\n(sim determinism broke; -update only if intentional)",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace length changed: got %d lines, fixture %d lines (sim determinism broke; -update only if intentional)",
		len(gl), len(wl))
}

// TestGoldenTraceSelfConsistent: two traced runs of the golden pair are
// identical, independent of the fixture — the determinism property the
// fixture pins across code changes.
func TestGoldenTraceSelfConsistent(t *testing.T) {
	w, point := goldenWorkload()
	sc := goldenSpace(t).New(point)
	run := func() []string {
		r, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		_, _, events := r.RunTraced(sc)
		lines := make([]string, len(events))
		for i, ev := range events {
			lines[i] = ev.String()
		}
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("traced runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traced runs diverge at event %d: %s vs %s", i, a[i], b[i])
		}
	}
}
