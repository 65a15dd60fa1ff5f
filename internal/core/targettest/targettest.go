// Package targettest is the contract a system under test owes
// core.Harness (DESIGN.md §14), written once and run by every target:
// forked == cold (a fork of a reused master equals the first run of a
// population on a fresh target) over a poisoned pool, messages in flight
// at the capture, unarmed baselines, queue-hook neutrality, runaway
// windows, retention, exact window pins, determinism and the structural
// marker. Each check is a method; a target's tests call them one per
// test, so every test still names the property it holds the target to.
//
// The package is test code: only _test.go files import it, and it imports
// core and the packages under it, never a target, so the targets' tests
// can stay in-package and reach their internals. Those internals reach
// the suite only through the closures of an Internals. The checks that
// need none run on a Spec, which a test outside the target's package can
// build from its exported API.
package targettest

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/slab"
)

// Runner is what the checks drive of a target from outside its package:
// core.Harness's run methods, which a target's exported runner promotes.
type Runner[R any] interface {
	core.Target
	RunReport(sc scenario.Scenario) (core.Result, R)
	RunTraced(sc scenario.Scenario) (core.Result, R, []oracle.Event)
	Prepare(sc scenario.Scenario)
}

// Spec is everything target-specific the checks that need no internals
// run on. W is the target's workload type; the suite only hands it back
// to New.
type Spec[W, R any] struct {
	// New builds a fresh target for a workload. Its plugins are the
	// hyperspace an all-faults campaign explores.
	New func(tb testing.TB, w W) Runner[R]
	// Groups are the target's named scenario lists; a check takes one by
	// name.
	Groups []Group[W, R]
	// Storm is a scenario whose window runs away.
	Storm Storm[W]
	// Campaign is the workload of the all-faults campaigns the queue hooks
	// must not change and a feedback batch of 4 must reproduce. CampaignHangs says at
	// least one test of the 30-test campaign runs into the step budget, so
	// windows end inside a train and with stale timer nodes queued.
	Campaign      W
	CampaignHangs bool
}

// Internals is a Spec and what the checks that reach into a deployment
// need besides: its memory and engine, its master key.
type Internals[W any, K comparable, D core.Deployment[R], R any] struct {
	Spec[W, R]
	// Target builds a fresh target for a workload, with its internals.
	Target func(tb testing.TB, w W) Target[K, D, R]
	// Window is a deployment's rig: its engine and arena.
	Window func(d D) *core.Rig
	// Key is the target's master key (core.HarnessSpec.Key).
	Key func(sc scenario.Scenario) K
	// Space holds every axis the target arms; Structural names, in order,
	// the axes Key reads.
	Space      *scenario.Space
	Structural []string
	// InFlight names the groups whose workload captures with messages in
	// flight, and proves it: it runs a just-restored deployment of the
	// group's first case for less than one network latency, and reports
	// whether something in flight at the capture was delivered.
	InFlight map[string]func(d D) bool
	// Parked checks what else a parked master must have handed back.
	Parked func(tb testing.TB, d D)
	// Pins are the target's exact counts.
	Pins []Pin[W, D]
	// Fuzz is FuzzForkEqualsCold's workload, and FuzzSeeds its seeds.
	Fuzz      W
	FuzzSeeds []FuzzSeed
}

// Target is one instance of a system under test, with its internals.
type Target[K comparable, D core.Deployment[R], R any] struct {
	*core.Harness[K, D, R]
	// Build builds and warms up, without capturing, the deployment sc
	// runs on.
	Build func(sc scenario.Scenario) D
	// Measure is the window of every run.
	Measure time.Duration
}

// Group is a workload and scenarios on it.
type Group[W, R any] struct {
	Name  string
	W     W
	Cases []Case[R]
}

// Case is one scenario. Exercised, when set, reports whether the cold
// run (the first on a fresh target) did what the case is there for.
type Case[R any] struct {
	Name      string
	Scenario  scenario.Scenario
	Exercised func(core.Result, R) bool
}

// Storm is a scenario whose window must degrade to Result.Hung with an
// Error containing Error, and a healthy scenario on the same workload.
type Storm[W any] struct {
	W        W
	Scenario scenario.Scenario
	Error    string
	Calm     scenario.Scenario
}

// Pin is one window's exact counts, or one forked run's allocations. The
// window is Scenario's, armed when Armed, on a freshly captured and
// restored deployment; when StepBudget is set the window must run into
// it. Lease is the chunks it leases from the pool; Executed and
// Dispatches its callbacks and queue events; Resets and Requeues the
// timer re-arms that moved no queue node and the nodes re-arms cost,
// counted from the build rather than the window's start when SinceBuild
// is set. ForkAllocs and ForkBytes bound the objects and bytes a forked
// run of Scenario allocates once its master and baseline exist. A zero
// figure is not pinned.
type Pin[W, D any] struct {
	Name                                   string
	W                                      W
	Scenario                               scenario.Scenario
	Armed                                  bool
	Window                                 time.Duration
	StepBudget                             uint64
	Lease                                  int
	Executed, Dispatches, Resets, Requeues uint64
	SinceBuild                             bool
	ForkAllocs                             uint64
	ForkBytes                              uint64
	// Check is a target extra, run on the deployment after the window.
	Check func(tb testing.TB, d D)
}

// FuzzSeed is one FuzzForkEqualsCold seed: a point of Internals.Space,
// the structural-axis bytes of its populations, the fork order and the
// queue hooks.
type FuzzSeed struct {
	Point                    map[string]int64
	Pops                     []byte
	Order                    uint32
	SplitTrains, EagerResets bool
}

// hooks are the engine's two queue hooks: every delivery a queue event of
// its own, every Engine.Reset a Stop and an At.
var hooks = []struct {
	name string
	set  func(bool)
}{{"split trains", sim.SetSplitTrains}, {"eager resets", sim.SetEagerResets}}

// withHook runs f with a queue hook on.
func withHook(set func(bool), f func()) {
	set(true)
	defer set(false)
	f()
}

// poison fills every chunk and object the slab pool takes back with
// garbage for the rest of the test (DESIGN.md §20).
func poison(tb testing.TB) {
	slab.SetPoison(true)
	tb.Cleanup(func() { slab.SetPoison(false) })
}

// Group is the group named name.
func (s Spec[W, R]) Group(tb testing.TB, name string) Group[W, R] {
	tb.Helper()
	i := slices.IndexFunc(s.Groups, func(g Group[W, R]) bool { return g.Name == name })
	if i < 0 {
		tb.Fatalf("no group %q", name)
	}
	return s.Groups[i]
}

// traced is everything a traced run reports.
type traced[R any] struct {
	res   core.Result
	rep   R
	trace []oracle.Event
}

// diff says how got differs from want, or is empty.
func diff[R any](label string, want, got traced[R]) string {
	if !reflect.DeepEqual(want.res, got.res) || !reflect.DeepEqual(want.rep, got.rep) {
		return fmt.Sprintf("%s differs:\nwant: %+v %+v\ngot:  %+v %+v", label, want.res, want.rep, got.res, got.rep)
	}
	if i := mismatch(want.trace, got.trace); i >= 0 {
		return fmt.Sprintf("%s: oracle trace diverges at event %d of %d (got %d)", label, i, len(want.trace), len(got.trace))
	}
	return ""
}

// mismatch is the first index at which two traces differ, or -1.
func mismatch(a, b []oracle.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// forkOrder lists each of n cases three times in a seeded shuffle, so
// forks of every population interleave.
func forkOrder(n int) []int {
	order := make([]int, 0, 3*n)
	for range 3 {
		for i := range n {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// coldThenForks runs every case of g cold, as the first run of a fresh
// target of its own (cases may share a population), then forks each three
// times in an interleaved order on one more target, and holds every run
// to want (to the cold runs when want is nil). It returns the cold runs
// and, per case, what went wrong with its runs.
func (s Spec[W, R]) coldThenForks(tb testing.TB, g Group[W, R], want []traced[R]) ([]traced[R], [][]string) {
	cold := make([]traced[R], len(g.Cases))
	failed := make([][]string, len(g.Cases))
	fail := func(i int, msg string) {
		if msg != "" {
			failed[i] = append(failed[i], msg)
		}
	}
	for i, c := range g.Cases {
		res, rep, trace := s.New(tb, g.W).RunTraced(c.Scenario)
		cold[i] = traced[R]{res, rep, trace}
		if len(trace) == 0 || res.Coverage.IsZero() {
			fail(i, fmt.Sprintf("the cold run traced %d events with coverage %+v", len(trace), res.Coverage))
		}
		if c.Exercised != nil && !c.Exercised(res, rep) {
			fail(i, fmt.Sprintf("the cold run does not exercise the case: %+v %+v", res, rep))
		}
		if want != nil {
			fail(i, diff("cold run", want[i], cold[i]))
		}
	}
	if want == nil {
		want = cold
	}
	tg := s.New(tb, g.W)
	forks := make([]int, len(g.Cases))
	for _, i := range forkOrder(len(g.Cases)) {
		forks[i]++
		res, rep, trace := tg.RunTraced(g.Cases[i].Scenario)
		fail(i, diff(fmt.Sprintf("fork %d", forks[i]), want[i], traced[R]{res, rep, trace}))
	}
	return cold, failed
}

// ForkedEqualsCold: the cold traced run of each case of the group equals
// its first, second and third fork — Result, report, oracle trace and a
// non-zero coverage digest — with the forks of all cases interleaved over
// a poisoned pool, so each fork carves memory another master used last.
// Each case reports as a subtest.
func (s Spec[W, R]) ForkedEqualsCold(t *testing.T, group string) {
	poison(t)
	g := s.Group(t, group)
	_, failed := s.coldThenForks(t, g, nil)
	for i, c := range g.Cases {
		t.Run(c.Name, func(t *testing.T) {
			for _, msg := range failed[i] {
				t.Error(msg)
			}
		})
	}
}

// QueueHooks: with either queue hook on, every traced run of the group
// comes back as shipped.
func (s Spec[W, R]) QueueHooks(t *testing.T, group string) {
	poison(t)
	g := s.Group(t, group)
	shipped, failed := s.coldThenForks(t, g, nil)
	report := func(label string, failed [][]string) {
		for i, msgs := range failed {
			for _, msg := range msgs {
				t.Errorf("%s%s: %s", label, g.Cases[i].Name, msg)
			}
		}
	}
	report("", failed)
	for _, h := range hooks {
		withHook(h.set, func() {
			_, failed := s.coldThenForks(t, g, shipped)
			report(h.name+", ", failed)
		})
	}
}

// QueueHooksCampaign: with either queue hook on, a 30-test all-faults
// campaign comes back result for result as shipped.
func (s Spec[W, R]) QueueHooksCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-test campaigns")
	}
	campaign := func() []core.Result {
		return runAll(t, s.New(t, s.Campaign), 1, 30)
	}
	want := campaign()
	hung := 0
	for _, res := range want {
		if res.Hung {
			hung++
		}
	}
	if s.CampaignHangs && hung == 0 {
		t.Error("no test ran into the step budget; the mid-train case was not exercised")
	}
	for _, h := range hooks {
		var got []core.Result
		withHook(h.set, func() { got = campaign() })
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("test %d differs with %s:\nhooked:  %+v\nshipped: %+v", i+1, h.name, got[i], want[i])
			}
		}
	}
}

// runAll runs a campaign of n tests to the end, the Controller seeded by
// seed exploring the target's plugins.
func runAll(tb testing.TB, target core.Target, seed int64, n int, opts ...core.EngineOption) []core.Result {
	tb.Helper()
	ctrl, err := core.NewController(core.ControllerConfig{Seed: seed}, target.Plugins()...)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(target, append(opts, core.WithExplorer(ctrl), core.WithBudget(n))...)
	if err != nil {
		tb.Fatal(err)
	}
	results, err := eng.RunAll(tb.Context())
	if err != nil {
		tb.Fatal(err)
	}
	if len(results) != n {
		tb.Fatalf("the campaign finished %d of %d tests", len(results), n)
	}
	return results
}

// Hung: the storm degrades to Hung on the same event cold (on a fresh
// target) and forked, and the next fork is healthy.
func (s Spec[W, R]) Hung(t *testing.T) { s.hung(t, s.New(t, s.Storm.W), nil) }

// hung is Hung, forking on tg, with more checks run between the storm and
// the healthy fork after it.
func (s Spec[W, R]) hung(t *testing.T, tg core.Target, more func()) {
	st := s.Storm
	healthy := tg.Run(st.Calm)
	if healthy.Errored() {
		t.Fatalf("the calm scenario degraded: %+v", healthy)
	}
	cold := s.New(t, st.W).Run(st.Scenario)
	if !cold.Hung || !strings.Contains(cold.Error, st.Error) {
		t.Fatalf("the storm did not degrade to hung with %q: %+v", st.Error, cold)
	}
	if fork := tg.Run(st.Scenario); !reflect.DeepEqual(cold, fork) {
		t.Errorf("the hung verdict differs between cold and fork:\ncold: %+v\nfork: %+v", cold, fork)
	}
	if more != nil {
		more()
	}
	if again := tg.Run(st.Calm); !reflect.DeepEqual(healthy, again) {
		t.Errorf("the storm leaked into the next fork:\nbefore: %+v\nafter:  %+v", healthy, again)
	}
}

// Deterministic: the first case of the group runs alike on two fresh
// targets.
func (s Spec[W, R]) Deterministic(t *testing.T, group string) {
	g := s.Group(t, group)
	first := g.Cases[0].Scenario
	res, rep := s.New(t, g.W).RunReport(first)
	if res2, rep2 := s.New(t, g.W).RunReport(first); !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(rep, rep2) {
		t.Errorf("two fresh targets disagree:\n%+v %+v\n%+v %+v", res, rep, res2, rep2)
	}
}

// ConcurrentForks: eight callers forking the first four cases of the
// group, the same and different populations at once, each preparing its
// next master first, get the serial results, baselines included. Under
// -race this is the fork path's race test.
func (s Spec[W, R]) ConcurrentForks(t *testing.T, group string) {
	g := s.Group(t, group)
	var scs []scenario.Scenario
	for _, c := range g.Cases[:min(len(g.Cases), 4)] {
		scs = append(scs, c.Scenario)
	}
	serial := s.New(t, g.W)
	want := make([]core.Result, len(scs))
	for i, sc := range scs {
		want[i] = serial.Run(sc)
	}
	tg := s.New(t, g.W)
	const callers = 8
	got := make([][]core.Result, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(scs) {
				sc := scs[(i+c)%len(scs)]
				tg.Prepare(sc)
				got[c] = append(got[c], tg.Run(sc))
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for n, res := range got[c] {
			if i := (n + c) % len(scs); !reflect.DeepEqual(want[i], res) {
				t.Errorf("caller %d diverged from the serial result of %s:\nwant %+v\ngot  %+v", c, scs[i].Key(), want[i], res)
			}
			if res.BaselineThroughput <= 0 {
				t.Errorf("caller %d: no baseline for %s", c, res.Scenario.Key())
			}
		}
	}
}

// CampaignDeterministic: a campaign with feedback batch 4 (workers=4),
// its runs checking masters out of one pool while the engine prefetches
// the next populations, reproduces its fingerprint. Under -race this is
// the parallel fork path's race test.
func (s Spec[W, R]) CampaignDeterministic(t *testing.T) {
	campaign := func() string {
		results := runAll(t, s.New(t, s.Campaign), 7, 12, core.WithWorkers(4))
		for _, res := range results {
			if res.BaselineThroughput <= 0 {
				t.Errorf("no baseline for %s", res.Scenario.Key())
			}
		}
		fp, err := core.FingerprintResults(results)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	if a, b := campaign(), campaign(); a != b {
		t.Errorf("workers=4 campaign fingerprints differ across runs: %s vs %s", a, b)
	}
}

// RunOnFromCapture: every group that claims messages in flight at its
// capture has them, and a deployment that runs straight on from its
// capture — delivering them through the live trains, not a restore's
// copies — forks like one that did not. Each group reports as a subtest.
func (s Internals[W, K, D, R]) RunOnFromCapture(t *testing.T) {
	poison(t)
	for _, g := range s.Groups {
		inFlight := s.InFlight[g.Name]
		if inFlight == nil {
			continue
		}
		t.Run(g.Name, func(t *testing.T) {
			tg := s.Target(t, g.W)
			sc := g.Cases[0].Scenario
			fork := func(d D) traced[R] {
				rec := oracle.NewRecorder()
				d.Restore()
				d.Trace(rec)
				d.Arm(sc, true)
				res, rep := d.Measure(sc, tg.Measure, 0)
				return traced[R]{res, rep, rec.Events()}
			}
			cold := tg.Build(sc)
			cold.Capture()
			want := fork(cold)

			d := tg.Build(sc)
			d.Capture()
			d.Restore()
			if !inFlight(d) {
				t.Fatal("nothing was in flight at the capture: the workload proves nothing, pick another warm-up")
			}
			s.Window(d).Eng.RunFor(tg.Measure)
			if msg := diff("fork after running on from the capture", want, fork(d)); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// Baseline: an unarmed run of each population of the group is the same
// cold (the first run of a fresh target of its own), forked and
// re-forked, the forks on one more target.
func (s Internals[W, K, D, R]) Baseline(t *testing.T, group string) {
	g := s.Group(t, group)
	forked := s.Target(t, g.W)
	seen := make(map[K]bool)
	for _, c := range g.Cases {
		if seen[s.Key(c.Scenario)] {
			continue
		}
		seen[s.Key(c.Scenario)] = true
		coldRes, coldRep := s.Target(t, g.W).Execute(c.Scenario, false)
		for fork := 1; fork <= 2; fork++ {
			res, rep := forked.Execute(c.Scenario, false)
			if !reflect.DeepEqual(coldRes, res) || !reflect.DeepEqual(coldRep, rep) {
				t.Errorf("%s: unarmed fork %d differs from the unarmed cold run:\ncold: %+v %+v\nfork: %+v %+v", c.Name, fork, coldRes, coldRep, res, rep)
			}
		}
	}
}

// AllOff: the scenario with every axis of Space at its minimum arms
// nothing, under any plugin. At each of the client counts, values of the
// first Structural axis, its run on a target for w measures exactly
// its baseline, reports no violation, is not hung, and scores the latency
// term alone: Impact is 0.2·min(AvgLatency/latencyRef, 1), bit for bit.
// That is not 0, because the latency term is absolute, not relative to
// the baseline.
func (s Internals[W, K, D, R]) AllOff(t *testing.T, w W, latencyRef time.Duration, clients ...int64) {
	if len(clients) < 2 {
		t.Fatal("AllOff covers at least two populations")
	}
	tg := s.New(t, w)
	for _, n := range clients {
		sc := s.Space.New(map[string]int64{s.Structural[0]: n})
		if got := sc.GetOr(s.Structural[0], 0); got != n {
			t.Fatalf("%d clients is not a value of %s (clamped to %d)", n, s.Structural[0], got)
		}
		res := tg.Run(sc)
		t.Logf("%d clients: impact %v, average latency %v", n, res.Impact, res.AvgLatency)
		if res.Errored() || len(res.Violations) > 0 {
			t.Errorf("%d clients: the all-off run misbehaved: %+v", n, res)
		}
		if res.BaselineThroughput <= 0 || res.Throughput != res.BaselineThroughput {
			t.Errorf("%d clients: throughput %v, baseline %v: an axis arms something at its minimum", n, res.Throughput, res.BaselineThroughput)
		}
		if want := 0.2 * min(float64(res.AvgLatency)/float64(latencyRef), 1); res.Impact != want {
			t.Errorf("%d clients: impact %v, want the latency term alone, %v", n, res.Impact, want)
		}
	}
}

// Hung is Spec.Hung, and besides: the storm's window memory goes back to
// the pool, and with either queue hook on an unscored storm ends on the
// same callback with the same verdict (a delivery riding a train still
// costs the budget one step, a stale node re-queued costs it none).
func (s Internals[W, K, D, R]) Hung(t *testing.T) {
	st := s.Storm
	tg := s.Target(t, st.W)
	s.hung(t, tg.Harness, func() {
		if n := tg.Pool().Leased(); n != 0 {
			t.Errorf("%d chunks still on lease after the hung tests parked", n)
		}
		// An unscored run leaves the master's engine at the storm's last event.
		unscored := func() (core.Result, uint64) {
			res, _ := tg.Execute(st.Scenario, true)
			var executed uint64
			tg.EachMaster(func(k K, d D) {
				if k == s.Key(st.Scenario) {
					executed = s.Window(d).Eng.Executed()
				}
			})
			return res, executed
		}
		want, wantExecuted := unscored()
		for _, h := range hooks {
			withHook(h.set, func() {
				if got, executed := unscored(); !reflect.DeepEqual(want, got) || executed != wantExecuted {
					t.Errorf("the storm differs with %s:\nhooked:  %d callbacks, %+v\nshipped: %d callbacks, %+v", h.name, executed, got, wantExecuted, want)
				}
			})
		}
	})
}

// Retention: after forks interleaved across the populations of the group
// and the baselines they trigger, nothing is on lease or borrowed, no
// parked master holds a chunk — its warm-up is heap memory (DESIGN.md
// §20) — or a delivery train besides its capture's, and whatever Parked
// checks. A master captured ahead of its first run (Harness.Prepare)
// borrows nothing while it waits.
func (s Internals[W, K, D, R]) Retention(t *testing.T, group string) {
	g := s.Group(t, group)
	tg := s.Target(t, g.W)
	d := tg.Build(g.Cases[0].Scenario)
	d.Capture()
	if n, trains := tg.Pool().Borrowed(), s.Window(d).Eng.Trains(); n != 0 || trains != 0 {
		t.Errorf("a captured master borrows %d scratch buffers and holds %d delivery trains besides its capture's, want 0 and 0", n, trains)
	}
	for range 2 {
		for _, c := range g.Cases {
			tg.Run(c.Scenario)
		}
	}
	if n := tg.Pool().Leased(); n != 0 {
		t.Errorf("%d chunks still on lease with every master parked", n)
	}
	if n := tg.Pool().Borrowed(); n != 0 {
		t.Errorf("%d scratch buffers still borrowed with every master parked", n)
	}
	parked := make(map[K]bool)
	tg.EachMaster(func(k K, d D) {
		parked[k] = true
		if n := s.Window(d).Mem.Held(); n != 0 {
			t.Errorf("parked master %+v holds %d chunks, want 0", k, n)
		}
		if n := s.Window(d).Eng.Trains(); n != 0 {
			t.Errorf("parked master %+v holds %d delivery trains besides its capture's, want 0", k, n)
		}
		if s.Parked != nil {
			s.Parked(t, d)
		}
	})
	for _, c := range g.Cases {
		if !parked[s.Key(c.Scenario)] {
			t.Errorf("%s: no parked master for its population", c.Name)
		}
	}
}

// RestoreAllocFree: with a warm pool, a window that leases its message
// memory and a restore that hands it back allocate nothing. It holds for
// a target whose messages come from its arena, and is not asserted under
// -race.
func (s Internals[W, K, D, R]) RestoreAllocFree(t *testing.T, group string) {
	g := s.Group(t, group)
	d := s.Target(t, g.W).Build(g.Cases[0].Scenario)
	d.Capture()
	d.Restore()
	cycle := func() {
		s.Window(d).Eng.RunFor(100 * time.Millisecond)
		d.Restore()
	}
	for range 3 { // the first cycles may grow the pool, the queue and dense tables
		cycle()
	}
	allocs := testing.AllocsPerRun(10, cycle)
	t.Logf("a run/restore cycle allocates %.1f objects", allocs)
	if allocs > 0 && !raceEnabled {
		t.Errorf("a run/restore cycle allocates %.1f objects; want 0", allocs)
	}
}

// Pin holds the pinned figures of the named pin to their exact values
// (ForkAllocs and ForkBytes to their bounds, except under -race).
func (s Internals[W, K, D, R]) Pin(t *testing.T, name string) {
	i := slices.IndexFunc(s.Pins, func(p Pin[W, D]) bool { return p.Name == name })
	if i < 0 {
		t.Fatalf("no pin %q", name)
	}
	p := s.Pins[i]
	if p.ForkAllocs > 0 || p.ForkBytes > 0 {
		tg := s.Target(t, p.W)
		fork := func() { tg.Run(p.Scenario) }
		fork() // builds, warms and captures the master, and measures the baseline
		allocs, bytes := allocsPerRun(20, fork)
		t.Logf("a forked run allocates %d objects, %d bytes", allocs, bytes)
		if p.ForkAllocs > 0 && allocs > p.ForkAllocs && !raceEnabled {
			t.Errorf("a forked run allocates %d objects, pinned at %d", allocs, p.ForkAllocs)
		}
		if p.ForkBytes > 0 && bytes > p.ForkBytes && !raceEnabled {
			t.Errorf("a forked run allocates %d bytes, pinned at %d", bytes, p.ForkBytes)
		}
	}
	if p.Lease == 0 && p.Executed == 0 && p.Dispatches == 0 && p.Resets == 0 && p.Requeues == 0 && p.Check == nil {
		return
	}
	d := s.Target(t, p.W).Build(p.Scenario)
	d.Capture()
	d.Restore()
	d.Arm(p.Scenario, p.Armed)
	win := s.Window(d)
	eng := win.Eng
	executed, dispatches := eng.Executed(), eng.Dispatches()
	var resets, requeues uint64
	if !p.SinceBuild {
		resets, requeues = eng.Resets(), eng.Requeues()
	}
	eng.SetStepBudget(p.StepBudget)
	eng.RunFor(p.Window)
	if p.StepBudget > 0 && !eng.BudgetExceeded() {
		t.Fatal("the window did not run into its step budget: the pin would be of a smaller window")
	}
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"chunks leased", uint64(win.Mem.Held()), uint64(p.Lease)},
		{"callbacks executed", eng.Executed() - executed, p.Executed},
		{"queue events dispatched", eng.Dispatches() - dispatches, p.Dispatches},
		{"timers re-armed in place", eng.Resets() - resets, p.Resets},
		{"queue nodes re-arms cost", eng.Requeues() - requeues, p.Requeues},
	} {
		if f.want != 0 && f.got != f.want {
			t.Errorf("%s: %d, want exactly %d", f.name, f.got, f.want)
		}
	}
	if p.Check != nil {
		p.Check(t, d)
	}
}

// allocsPerRun is testing.AllocsPerRun in objects and bytes: the average
// growth of runtime.MemStats.Mallocs and TotalAlloc over runs calls of f,
// after one more to warm up, on one thread.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// StructuralKey: an axis of Space is Structural iff moving it changes the
// master key, which core.PlanShards relies on to give every population to
// one shard.
func (s Internals[W, K, D, R]) StructuralKey(t *testing.T) {
	base := s.Space.New(nil)
	var structural []string
	for _, d := range s.Space.Dimensions() {
		moved := s.Key(base.With(d.Name, d.Value(1))) != s.Key(base)
		if moved != d.Structural {
			t.Errorf("%s: Structural=%v, moving it changes the master key: %v", d.Name, d.Structural, moved)
		}
		if d.Structural {
			structural = append(structural, d.Name)
		}
	}
	if !slices.Equal(structural, s.Structural) {
		t.Errorf("structural axes %v, want %v", structural, s.Structural)
	}
}
