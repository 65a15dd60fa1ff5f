package campaign

import (
	"strconv"
	"testing"
	"time"

	"avd/internal/core"
)

// TestPaperFigure2 is the paper's headline measurement on the default
// campaigns the CLIs run: how many tests each strategy needs before a
// scenario reaches impact >= 0.9, for seeds 1-10. The PBFT rows are
// `avd -strategy S -seed N` (MAC corruption and client population, 125
// tests, 1.5 s window); the raft row is `avd -target raft -seed N` (leader
// flap and client population). A count of 0 means the budget ran out
// first. Counts are a function of seed and code, so they are compared
// exactly with testdata/fig2.golden; a change that moves one on purpose
// regenerates the file and carries the diff:
//
//	go test ./internal/campaign -run TestPaperFigure2 -update
func TestPaperFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("50 campaigns, ~1 min")
	}
	rows := []struct{ name, target, strategy string }{
		{"pbft", "pbft", "avd"},
		{"pbft", "pbft", "random"},
		{"pbft", "pbft", "genetic"},
		{"pbft", "pbft", "coverage"},
		{"raft_leader_flap", "raft", "avd"},
	}
	lines := make([]string, len(rows))
	// The group returns once its parallel subtests have.
	t.Run("rows", func(t *testing.T) {
		for i, row := range rows {
			t.Run(row.name+"_"+row.strategy, func(t *testing.T) {
				t.Parallel()
				// One target for the row's ten campaigns: forked == cold,
				// so warm masters change no result.
				setup, err := Build(Config{
					Target: row.target, Strategy: row.strategy, Tests: 125, Seed: 1,
					Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = row.name + " " + row.strategy
				for seed := int64(1); seed <= 10; seed++ {
					explorer, err := BuildExplorer(row.strategy, seed, setup.Space, setup.Target.Plugins())
					if err != nil {
						t.Fatal(err)
					}
					n := firstHit(t, setup.Target, explorer, setup.Manifest.Budget,
						func(r core.Result) bool { return r.Impact >= 0.9 })
					lines[i] += " " + strconv.Itoa(n)
				}
			})
		}
	})
	if !t.Failed() {
		checkGolden(t, "fig2.golden", lines)
	}
}
