package campaign

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/raftsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/shootout.golden")

// shootoutDefects are three scenario-rare defect recipes (0.5-2% of
// uniformly drawn scenarios; EXPERIMENTS.md "Coverage-guided
// exploration"): a Byzantine backup with the quorum defect, which the
// search has to rotate into the primary's seat; Raft's double-vote
// defect; and, with nothing injected, an election storm of ten or more
// leadership changes. Budgets are sized to the base rates: a blind search
// gets a fair shot and a not-found run stays cheap.
var shootoutDefects = []struct {
	name   string
	budget int
	target func() (core.Target, error)
	hit    func(core.Result) bool
}{
	{"pbft_backup_quorum", 200, func() (core.Target, error) {
		w := cluster.DefaultWorkload()
		w.Measure = 800 * time.Millisecond
		w.PBFT.QuorumBug = true
		w.Equivocate = true
		w.ByzantineReplica = 2
		return cluster.NewTarget(w, plugin.NewClients(), plugin.NewCrashRestart(),
			plugin.NewOneWay(4), plugin.NewNetFaults(4))
	}, func(r core.Result) bool { return r.Violated("pbft/agreement") }},
	{"raft_double_vote", 150, func() (core.Target, error) {
		w := raftsim.DefaultWorkload()
		w.Warmup = 300 * time.Millisecond
		w.Measure = 600 * time.Millisecond
		w.Raft.DoubleVoteBug = true
		return raftsim.NewTarget(w, raftsim.NewClientsPlugin(),
			raftsim.NewLeaderFlapPlugin(), raftsim.NewCrashRestartPlugin())
	}, func(r core.Result) bool { return r.Violated("raft/election-safety") }},
	{"raft_election_storm", 250, func() (core.Target, error) {
		return raftsim.NewTarget(raftsim.DefaultWorkload())
	}, func(r core.Result) bool { return r.ViewChanges >= 10 }},
}

// TestStrategyShootout is the paper's one evaluation figure (§4), "the
// number of tests necessary for AVD to find a vulnerability", for each
// strategy the CLIs offer, on each defect, over seeds 1-10. A count is a
// function of seed and code and of nothing else, so it is compared
// exactly with testdata/shootout.golden (one line per defect and strategy;
// 0 = not found within the budget). A change that moves a cell on purpose
// regenerates the file and carries the diff:
//
//	go test ./internal/campaign -run TestStrategyShootout -update
func TestStrategyShootout(t *testing.T) {
	if testing.Short() {
		t.Skip("120 campaigns, ~20 s")
	}
	got := make([][]string, len(shootoutDefects))
	// The group returns once its parallel subtests have.
	t.Run("defects", func(t *testing.T) {
		for i, d := range shootoutDefects {
			t.Run(d.name, func(t *testing.T) {
				t.Parallel()
				// One target for the defect's forty campaigns: forked ==
				// cold, so warm masters change no result.
				target, err := d.target()
				if err != nil {
					t.Fatal(err)
				}
				space, err := core.Space(target.Plugins()...)
				if err != nil {
					t.Fatal(err)
				}
				for _, strategy := range []string{"avd", "random", "genetic", "coverage"} {
					line := d.name + " " + strategy
					for seed := int64(1); seed <= 10; seed++ {
						explorer, err := BuildExplorer(strategy, seed, space, target.Plugins())
						if err != nil {
							t.Fatal(err)
						}
						line += " " + strconv.Itoa(firstHit(t, target, explorer, d.budget, d.hit))
					}
					got[i] = append(got[i], line)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var lines []string
	for _, defect := range got {
		lines = append(lines, defect...)
	}

	path := filepath.Join("testdata", "shootout.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update to create): %v", path, err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the shootout %d", path, len(want), len(lines))
	}
	for i, line := range lines {
		g, w := strings.Fields(line), strings.Fields(want[i])
		if len(w) != len(g) || w[0] != g[0] || w[1] != g[1] {
			t.Fatalf("%s line %d is %q, the shootout's is %q", path, i+1, want[i], line)
		}
		for cell := 2; cell < len(g); cell++ {
			if g[cell] != w[cell] {
				t.Errorf("%s %s seed %d: first hit at test %s, golden %s (0 = not found; -update only if the search was meant to change)",
					g[0], g[1], cell-1, g[cell], w[cell])
			}
		}
	}
}

// firstHit runs one serial campaign, stopped at the first result hit
// accepts, and returns that result's 1-based index (0 if the budget ran
// out first). A degraded result — a panic inside the target that the
// engine scored as impact 0, or a hung window — fails the test: the
// counts committed before PR 14 had such a panic inside them.
func firstHit(t *testing.T, target core.Target, explorer core.Explorer, budget int, hit func(core.Result) bool) int {
	first := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng, err := core.NewEngine(target,
		core.WithExplorer(explorer), core.WithBudget(budget), core.WithWorkers(1),
		core.WithObserver(func(i int, res core.Result) {
			if res.Errored() {
				t.Errorf("test %d (%s) degraded: hung=%t %s", i, res.Scenario.Key(), res.Hung, res.Error)
			}
			if first == 0 && hit(res) {
				first = i
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	// The cancel at the first hit is the one expected error.
	if _, err := eng.RunAll(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	return first
}
