// Command avd runs vulnerability discovery campaigns against a
// simulated system under test: the paper's fitness-guided controller
// (Algorithm 1), the random baseline, a genetic explorer, or the
// coverage-guided explorer (timeline-hash feedback over a scenario
// corpus), over any combination of the target's testing-tool plugins. The engine is
// protocol-agnostic — the same search drives the PBFT deployment (the
// paper's case study) or the Raft cluster (-target raft).
//
// With -state the campaign is crash-safe: progress is journaled to a
// durable checkpoint after every batch and the process resumes from it
// on restart, so a SIGKILL (or power loss) costs at most the batch in
// flight. With -shard k/K the process runs one deterministic sub-space
// of a K-way sharded campaign; cmd/avdd supervises a full set of shards
// and merges their checkpoints.
//
// The paper's experiments are subcommands, named first:
//
//	avd fig2 | fig3 | power | bigmac | slowprimary [flags]
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"avd/internal/campaign"
	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/scenario"
	"avd/internal/trace"
)

// subcommands regenerate the paper's figures and §4/§6 experiments.
var subcommands = []struct {
	name, about string
	run         func(args []string)
}{
	{"fig2", "Figure 2: AVD vs random campaign evolution", fig2},
	{"fig3", "Figure 3: exhaustive subspace heat map", fig3},
	{"power", "§4 attacker power vs tests-to-find", power},
	{"bigmac", "§6 Big MAC attack on one deployment", bigmac},
	{"slowprimary", "§6 slow-primary bug, real timers", slowprimary},
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		runCampaign(args)
		return
	}
	for _, sub := range subcommands {
		if sub.name == args[0] {
			sub.run(args[1:])
			return
		}
	}
	fmt.Fprintf(os.Stderr, "avd: unknown subcommand %q\n", args[0])
	usage(os.Stderr)
	os.Exit(2)
}

// usage says how avd is invoked and lists its subcommands.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: avd [flags]               run one campaign")
	fmt.Fprintln(w, "       avd <subcommand> [flags]  run one of the paper's experiments")
	fmt.Fprintln(w, "subcommands:")
	for _, sub := range subcommands {
		fmt.Fprintf(w, "  %-12s %s\n", sub.name, sub.about)
	}
}

// parseFlags parses args into fs and exits 2 on anything left over:
// parsing stops at the first word that is not a flag, so every flag after
// a stray word would otherwise be dropped without a sound.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args) // fs exits on a bad flag
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected arguments: %s\n", fs.Name(), strings.Join(fs.Args(), " "))
		os.Exit(2)
	}
}

func runCampaign(args []string) {
	fs := flag.NewFlagSet("avd", flag.ExitOnError)
	fs.Usage = func() {
		usage(fs.Output())
		fmt.Fprintln(fs.Output(), "campaign flags:")
		fs.PrintDefaults()
	}
	var cfg campaign.Config
	cfg.RegisterFlags(fs)
	var (
		csvPath    = fs.String("csv", "", "write per-test results to this CSV file")
		topN       = fs.Int("top", 5, "print the N best attacks found")
		quiet      = fs.Bool("quiet", false, "suppress per-test progress output")
		minimize   = fs.Bool("minimize", false, "delta-debug the best attack found down to a minimal fault schedule that still reproduces it")
		minThresh  = fs.Float64("minthreshold", 0, "impact a minimized scenario must keep when no oracle was violated (0 = 90% of the original's impact)")
		minRuns    = fs.Int("minruns", 256, "re-execution budget for -minimize")
		stateDir   = fs.String("state", "", "durable state directory: journal progress after every batch and resume from it on restart")
		shardSpec  = fs.String("shard", "", "run one shard of a K-way sharded campaign, as k/K (0-based); requires a deterministic shard plan shared with the supervisor")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file after the campaign, before the summary")
	)
	parseFlags(fs, args)

	var err error
	if cfg.Shard, cfg.Shards, err = campaign.ParseShard(*shardSpec); err != nil {
		fatal(err)
	}
	setup, err := campaign.Build(cfg)
	if err != nil {
		fatal(err)
	}
	target, space, explorer := setup.Target, setup.Space, setup.Explorer

	// Output files open before the campaign spends its budget or touches
	// its state directory, so a path that cannot be written fails at once.
	csvFile, cpuFile, memFile := createOutput(*csvPath), createOutput(*cpuProfile), createOutput(*memProfile)

	opts := []core.EngineOption{
		core.WithExplorer(explorer),
		core.WithBudget(cfg.Tests),
		core.WithWorkers(setup.Manifest.Workers),
	}

	// Durable state: validate the manifest (refusing a resume whose flags
	// drifted), open the checkpoint pair, and wire replay + journaling.
	var durable *core.DurableCheckpoint
	var paths campaign.StatePaths
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fatal(err)
		}
		paths = campaign.PathsFor(*stateDir, cfg.Shard, cfg.Shards)
		saved, err := core.LoadManifest(paths.Manifest)
		switch {
		case err == nil:
			if verr := setup.Manifest.Validate(saved); verr != nil {
				fatal(verr)
			}
		case errors.Is(err, os.ErrNotExist):
			if werr := core.WriteManifest(paths.Manifest, setup.Manifest); werr != nil {
				fatal(werr)
			}
		default:
			fatal(err)
		}
		var info core.RecoveryInfo
		durable, info, err = core.OpenDurable(paths.Checkpoint, space)
		if err != nil {
			fatal(err)
		}
		if info.Resumed() > 0 || info.TornTail {
			fmt.Printf("resumed from %s: %s\n", paths.Checkpoint, info)
		}
		opts = append(opts, core.WithDurable(durable))
	}

	observer := func(i int, res core.Result) {
		if !*quiet {
			fmt.Printf("%4d impact=%.3f tput=%8.0f lat=%-10v %s (%s)%s%s\n",
				i, res.Impact, res.Throughput, res.AvgLatency.Round(time.Millisecond),
				res.Scenario.Key(), res.Generator, violationSuffix(res), errorSuffix(res))
		}
		if paths.Heartbeat != "" {
			// Liveness for the supervisor: progress count, rewritten in
			// place (the supervisor watches the mtime).
			os.WriteFile(paths.Heartbeat, []byte(fmt.Sprintf("%d\n", i)), 0o644)
		}
	}
	opts = append(opts, core.WithObserver(observer))

	eng, err := core.NewEngine(target, opts...)
	if err != nil {
		fatal(err)
	}

	shardNote := ""
	if cfg.Shards > 1 {
		shardNote = fmt.Sprintf(" shard=%d/%d (%s)", cfg.Shard, cfg.Shards, setup.Plan)
	}
	// workers is the count that runs, not the flag: -workers 0 is -workers 1.
	fmt.Printf("target=%s strategy=%s hyperspace=%d scenarios budget=%d workers=%d%s\n",
		target.Name(), cfg.Strategy, space.Size(), cfg.Tests, setup.Manifest.Workers, shardNote)

	// Ctrl-C (or the supervisor's drain signal) cancels the campaign; the
	// batch in flight still completes and reaches the checkpoint, and the
	// partial results are summarized below. Once the campaign has returned
	// the signals kill the process again, so a second Ctrl-C is not lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	stopCPUProfile, err := startCPUProfile(cpuFile)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	results, runErr := eng.RunAll(ctx)
	stop()
	// An output that fails from here on is reported and turns the exit
	// status, but the checkpoint is still folded and the summary printed.
	outputErr := stopCPUProfile()
	outputErr = errors.Join(outputErr, writeHeapProfile(memFile))
	interrupted := false
	if runErr != nil {
		interrupted = errors.Is(runErr, context.Canceled)
		fmt.Fprintf(os.Stderr, "avd: campaign ended early: %v\n", runErr)
	}
	if durable != nil {
		// Fold the journal into a final snapshot so the next process (or
		// the supervisor's merge) starts from one clean file.
		if err := durable.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("durable checkpoint: %s (%d results)\n", durable.Path(), durable.Len())
	}
	fmt.Printf("\n%s\n\n", wallLine(len(results), time.Since(start)))
	if len(results) > 0 {
		trace.SummarizeCampaign(os.Stdout, cfg.Strategy, results)
		if cov, ok := explorer.(*core.CoverageExplorer); ok {
			fmt.Printf("  corpus: %d entries kept of %d distinct behavior sets observed\n",
				cov.Corpus().Len(), cov.Corpus().Behaviors())
		}

		best := topAttacks(results, *topN)
		if len(best) > 0 {
			fmt.Printf("\ntop %d attacks:\n", len(best))
		}
		for i, r := range best {
			fmt.Printf("  %d. impact=%.3f tput=%.0f req/s lat=%v crash=%d injected=%d/%d  %s%s%s\n",
				i+1, r.Impact, r.Throughput, r.AvgLatency.Round(time.Millisecond),
				r.CrashedReplicas, r.InjectedCrashes, r.Restarts,
				r.Scenario.Key(), violationSuffix(r), errorSuffix(r))
		}

		if *minimize && interrupted {
			fmt.Fprintln(os.Stderr, "avd: interrupted: -minimize skipped")
		} else if *minimize {
			runMinimize(target, results, *minThresh, *minRuns)
		}

	}
	if csvFile != nil {
		err := trace.WriteCampaignCSV(csvFile, cfg.Strategy, results)
		if err = errors.Join(err, csvFile.Close()); err != nil {
			outputErr = errors.Join(outputErr, fmt.Errorf("csv: %w", err))
		} else {
			fmt.Printf("\nwrote %s\n", *csvPath)
		}
	}
	if outputErr != nil {
		fmt.Fprintln(os.Stderr, "avd:", outputErr)
	}
	if interrupted {
		// Distinguish "drained on signal, checkpoint flushed" from
		// natural completion so a supervisor knows the shard is not done.
		os.Exit(3)
	}
	if runErr != nil || outputErr != nil {
		os.Exit(1)
	}
}

// wallLine is the summary's timing line. Milliseconds, because a CI smoke
// finishes in well under a second; the "N tests in" prefix is what
// benchmark/parse.go scans for.
func wallLine(tests int, wall time.Duration) string {
	return fmt.Sprintf("%d tests in %v (wall, %.1f tests/s)", tests, wall.Round(time.Millisecond), float64(tests)/wall.Seconds())
}

// topAttacks returns the n results of highest impact, ties in execution
// order.
func topAttacks(results []core.Result, n int) []core.Result {
	best := slices.Clone(results)
	slices.SortStableFunc(best, func(a, b core.Result) int { return cmp.Compare(b.Impact, a.Impact) })
	return best[:max(0, min(n, len(best)))]
}

// createOutput creates the file an output flag names, or exits; an empty
// path names none.
func createOutput(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

// pbftWorkload is the paper's PBFT deployment measured over a window of
// the given length, as the subcommands' -measure sets it.
func pbftWorkload(measure time.Duration) cluster.Workload {
	w := cluster.DefaultWorkload()
	w.Measure = measure
	return w
}

// checkGrid refuses a value the space would clamp onto its grid, which
// would silently run a scenario other than the one asked for.
func checkGrid(space *scenario.Space, vals map[string]int64) {
	for _, d := range space.Dimensions() {
		if v, ok := vals[d.Name]; ok && d.Clamp(v) != v {
			fatal(fmt.Errorf("%s must be on %d..%d step %d, not %d", d.Name, d.Min, d.Max, d.Step, v))
		}
	}
}

// startCPUProfile starts CPU profiling into f and returns the function
// that ends it and closes f; a nil f profiles nothing.
func startCPUProfile(f *os.File) (stop func() error, err error) {
	if f == nil {
		return func() error { return nil }, nil
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// writeHeapProfile writes the heap profile to f and closes it (no-op when
// nil). It runs right after the campaign, while the harness still holds
// its warm masters, so inuse_space shows what a campaign retains and
// alloc_space what its windows churned.
func writeHeapProfile(f *os.File) error {
	if f == nil {
		return nil
	}
	runtime.GC() // materialize up-to-date in-use statistics
	err := pprof.WriteHeapProfile(f)
	if err = errors.Join(err, f.Close()); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avd:", err)
	os.Exit(1)
}

// errorSuffix flags tests that degraded instead of completing: a hung
// scenario (step budget exhausted) or a panicking target.
func errorSuffix(res core.Result) string {
	switch {
	case res.Hung:
		return " HUNG"
	case res.Error != "":
		return " ERROR"
	default:
		return ""
	}
}

// violationSuffix renders a result's violated invariants for progress
// lines, empty when the run broke nothing.
func violationSuffix(res core.Result) string {
	if len(res.Violations) == 0 {
		return ""
	}
	parts := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		parts[i] = v.Invariant
	}
	return " VIOLATES " + strings.Join(parts, ",")
}

// runMinimize delta-debugs the campaign's most vulnerable result — a
// scenario with oracle violations beats any violation-free impact — and
// prints the reduction walkthrough.
func runMinimize(target core.Target, results []core.Result, threshold float64, maxRuns int) {
	pick := results[0]
	for _, r := range results[1:] {
		if len(r.Violations) != len(pick.Violations) {
			if len(r.Violations) > len(pick.Violations) {
				pick = r
			}
			continue
		}
		if r.Impact > pick.Impact {
			pick = r
		}
	}

	fmt.Printf("\nminimizing %s (impact=%.3f weight=%d)%s\n",
		pick.Scenario.Key(), pick.Impact, pick.Scenario.Weight(), violationSuffix(pick))
	m, err := core.Minimize(target, pick, core.MinimizeConfig{
		ImpactThreshold: threshold,
		MaxRuns:         maxRuns,
		Observer: func(step core.MinimizeStep) {
			verdict := "rejected"
			if step.Accepted {
				verdict = "accepted"
			}
			fmt.Printf("  probe %-16s impact=%.3f weight=%d %s%s\n",
				step.Dimension, step.Result.Impact, step.Result.Scenario.Weight(),
				verdict, violationSuffix(step.Result))
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "avd: minimize:", err)
		return
	}
	fmt.Printf("minimal reproduction after %d runs: %s (impact=%.3f weight=%d, was %d)%s\n",
		m.Runs, m.Minimal.Scenario.Key(), m.Minimal.Impact,
		m.Minimal.Scenario.Weight(), m.Original.Scenario.Weight(), violationSuffix(m.Minimal))
	if len(m.Invariants) > 0 {
		fmt.Printf("  still violates: %s\n", strings.Join(m.Invariants, ", "))
	} else {
		fmt.Printf("  still holds impact >= %.3f\n", m.ImpactThreshold)
	}
	if !m.Reduced {
		fmt.Println("  (already minimal: no probed reduction reproduces)")
	}
}
