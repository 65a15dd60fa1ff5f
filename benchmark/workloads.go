package main

import (
	"strconv"
	"time"

	"avd/internal/campaign"
	"avd/internal/plugin"
	"avd/internal/raftsim"
)

// explorerSeed pins every campaign's explorer seed. A campaign's cost is
// a property of its trajectory — across explorer seeds 1..8 the same
// command line's wall-clock spreads 20-40% and its peak RSS by 1.7x —
// so the trajectory is part of the workload's definition, not an input:
// every repetition of a workload does bit-identical work, which is what
// the median-of-repetitions estimators and the byte-identity correctness
// check rely on. The benchmark's own -seed drives the harness-side input
// instead: the order in which set-up passes prepare the populations.
const explorerSeed = 1

// measure is the virtual measurement window per test (cmd/avd's default).
const measure = 1500 * time.Millisecond

// stepBudget is cmd/avd's default per-test event budget.
const stepBudget = 2_000_000

// A workload is one campaign command line driven through the built
// binaries, plus what the harness needs to mirror it in-process.
type workload struct {
	name string
	why  string
	// cfg is the campaign as cmd/avd's flags describe it (one process;
	// for a sharded workload, shard 0 of cfg.Shards).
	cfg campaign.Config
	// sharded runs the campaign through avdd supervising cfg.Shards
	// durable avd workers; cfg.Tests is the budget per shard.
	sharded bool
	// popDims are the dimensions that identify a client population (one
	// warm master each); set-up prepares their full grid.
	popDims []string
	// setupPasses is how many fresh-target passes one set-up repetition
	// makes (reported per pass), sized so a repetition lasts >= 1.5 s.
	setupPasses int
}

// tests is the number of tests one repetition attempts.
func (w workload) tests() int {
	if w.sharded {
		return w.cfg.Tests * w.cfg.Shards
	}
	return w.cfg.Tests
}

// args renders the child's arguments: avdd's for a sharded workload, avd's
// otherwise. csv and state are per-repetition paths; avdBin (the worker)
// and state are used by sharded workloads only.
func (w workload) args(avdBin, csv, state string) []string {
	common := []string{
		"-target", w.cfg.Target,
		"-strategy", w.cfg.Strategy,
		"-tests", strconv.Itoa(w.cfg.Tests),
		"-seed", strconv.FormatInt(w.cfg.Seed, 10),
	}
	if w.cfg.Faults != "" {
		common = append(common, "-faults", w.cfg.Faults)
	}
	if w.sharded {
		return append([]string{"-worker", avdBin, "-shards", strconv.Itoa(w.cfg.Shards), "-state", state, "-csv", csv}, common...)
	}
	return append(common, "-quiet", "-csv", csv)
}

func baseConfig(target, strategy string, tests int) campaign.Config {
	return campaign.Config{
		Target:     target,
		Strategy:   strategy,
		Tests:      tests,
		Seed:       explorerSeed,
		Measure:    measure,
		StepBudget: stepBudget,
		Workers:    1,
		Shards:     1,
	}
}

var pbftPopulation = []string{plugin.DimCorrectClients, plugin.DimMaliciousClients}

// workloads lists the benchmark's workloads. Budgets are sized so one
// repetition takes about 3 s on the 2-vCPU reference container: the
// driver allows ~35 s per run, and a run needs a discarded warm-up plus
// at least four measured repetitions interleaved with set-up passes.
func workloads() []workload {
	fig2 := workload{
		name:        "pbft-fig2",
		why:         "avd -target pbft -strategy avd -tests 100: the paper's Figure-2 campaign; 1.5 s windows dominate, so pbft, mac, sim and simnet do the work; up to 250 clients per master make it the memory-heavy case",
		cfg:         baseConfig("pbft", "avd", 100),
		popDims:     pbftPopulation,
		setupPasses: 1,
	}
	raft := workload{
		name:        "raft-flap",
		why:         "avd -target raft -strategy avd -tests 80: leader-flap election storms on the second SUT; no pbft, no mac; raftsim and sim timer lanes dominate, so a PBFT or MAC optimisation must show no change here",
		cfg:         baseConfig("raft", "avd", 80),
		popDims:     []string{raftsim.DimClients},
		setupPasses: 3,
	}
	cov := workload{
		name:        "pbft-faults-coverage",
		why:         "avd -target pbft -strategy coverage -faults crash,skew,oneway,corrupt,dup -tests 400: faults make windows cheap, so fork/arm/score, faultinject, link faults, coverage digest and corpus carry the cost",
		cfg:         baseConfig("pbft", "coverage", 400),
		popDims:     pbftPopulation,
		setupPasses: 1,
	}
	cov.cfg.Faults = "crash,skew,oneway,corrupt,dup"
	sharded := workload{
		name:        "pbft-sharded-durable",
		why:         "avdd -worker avd -shards 2 -tests 70 -state DIR: two supervised durable avd shards on the two cores; fsync and heartbeat per test, recovery, merge; the only run with two busy processes and disk writes",
		cfg:         baseConfig("pbft", "avd", 70),
		sharded:     true,
		popDims:     pbftPopulation,
		setupPasses: 1,
	}
	sharded.cfg.Shards = 2
	return []workload{fig2, raft, cov, sharded}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
