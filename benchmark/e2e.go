package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"time"
)

// minRepetitions is the least number of campaign repetitions a run
// reports over, however short -seconds is.
const minRepetitions = 3

// campaignShare is the part of -seconds spent on campaign repetitions —
// seven of them at the default; the rest is for the set-up repetitions.
const campaignShare = 0.8

// setupRepetitions is how many set-up repetitions a run makes (~2 s
// each). The count is fixed, not fitted to the time left: each repetition
// finds the heap a little warmer than the one before (1.96, 1.84, 1.67 s
// on pbft-fig2), so the number of repetitions is part of the measurement.
const setupRepetitions = 3

// warmupWallLimit bounds the discarded warm-up repetition, which has no
// earlier repetition to be held against: well above any workload (~3 s),
// well inside the driver's 180 s cap.
const warmupWallLimit = 60 * time.Second

// repetition is one campaign through the built binaries, checked.
type repetition struct {
	run    childRun
	report cliReport
	csv    []byte
	failed int   // tests that failed, out of the workload's budget
	err    error // why the repetition is incorrect (nil = correct)
}

// campaignRepetition runs the workload once as a child process on fresh
// csv and state paths and checks everything one repetition can be checked
// for on its own: exit 0 under the guard, exactly the budget completed,
// every shard done, no hung or errored test.
func (e *env) campaignRepetition(w workload, wallLimit time.Duration) repetition {
	csvPath, state := e.path("campaign.csv"), e.path("state")
	os.Remove(csvPath)
	os.RemoveAll(state)
	defer os.RemoveAll(state)

	exe, bin := e.avd, "avd"
	if w.sharded {
		exe, bin = e.avdd, "avdd"
	}
	rep := repetition{}
	rep.run = e.runChild(exe, w.args(e.avd, csvPath, state), wallLimit)
	fail := func(err error) repetition {
		rep.failed, rep.err = w.tests(), err
		return rep
	}
	if rep.run.err != nil {
		return fail(rep.run.err)
	}
	rep.report = parseStdout(rep.run.stdout)
	if rep.report.tests != w.tests() {
		return fail(fmt.Errorf("%s reported %d tests, budget is %d", bin, rep.report.tests, w.tests()))
	}
	if w.sharded {
		if rep.report.shardsDone != w.cfg.Shards || rep.report.shardsTotal != w.cfg.Shards {
			return fail(fmt.Errorf("avdd completed %d/%d shards, want %d", rep.report.shardsDone, rep.report.shardsTotal, w.cfg.Shards))
		}
		if rep.report.fingerprint == "" {
			return fail(fmt.Errorf("avdd printed no campaign fingerprint"))
		}
		if rep.report.restarts != 0 {
			return fail(fmt.Errorf("avdd restarted workers %d times", rep.report.restarts))
		}
	}
	var err error
	if rep.csv, err = os.ReadFile(csvPath); err != nil {
		return fail(err)
	}
	table, err := parseCSV(rep.csv)
	if err != nil {
		return fail(err)
	}
	if table.rows != w.tests() {
		return fail(fmt.Errorf("csv holds %d results, budget is %d", table.rows, w.tests()))
	}
	if table.failed > 0 {
		rep.failed = table.failed
		rep.err = fmt.Errorf("%d tests hung or errored", table.failed)
	}
	return rep
}

// sameOutput reports how b's outputs differ from the reference a (""
// = identical): the simulator is deterministic, so every repetition of a
// workload must write a byte-identical csv and print the same fingerprint.
func sameOutput(a, b repetition) string {
	if a.report.fingerprint != b.report.fingerprint {
		return fmt.Sprintf("campaign fingerprint %s differs from the first repetition's %s", b.report.fingerprint, a.report.fingerprint)
	}
	if !bytes.Equal(a.csv, b.csv) {
		return fmt.Sprintf("csv (sha256 %x) differs from the first repetition's (%x)", sha256.Sum256(b.csv), sha256.Sum256(a.csv))
	}
	return ""
}

// outcome accumulates a run's verdict.
type outcome struct {
	attempted, failed int
	problems          []string
}

func (o *outcome) add(w workload, rep repetition) {
	o.attempted += w.tests()
	o.failed += rep.failed
	if rep.err != nil {
		o.problems = append(o.problems, rep.err.Error())
	}
}

// endToEndRun measures one workload for about `seconds`: a discarded
// warm-up campaign repetition (it absorbs the first-exec page-cache cost,
// sets the guard's wall limit and is the output every later repetition
// must equal), then campaign repetitions as child processes, one campaign
// at a time, for campaignShare of the time (never fewer than
// minRepetitions), then setupRepetitions in-process set-up repetitions.
//
// The set-ups come last because they grow the harness to ~1 GB, and Linux
// folds the parent's high-water RSS into a child's ru_maxrss at exec: a
// campaign child started after a set-up would report the harness's peak,
// not its own.
//
// Every repetition does bit-identical work, so interference only ever
// adds time: the time metrics report the lower quartile of their
// repetitions (the fast end is the signal; the quartile, not the minimum,
// so one lucky repetition cannot set it — and the first, cold-heap set-up
// repetition needs no separate discarding). GC timing only ever trims a
// child's peak (raft-flap: 760 or 810 MB), so peak RSS reports the largest
// over the repetitions: the peak a user must provision for.
func (e *env) endToEndRun(w workload, seconds float64, logf func(string, ...any)) (map[string]float64, outcome) {
	var out outcome

	warm := e.campaignRepetition(w, warmupWallLimit)
	out.add(w, warm)
	if warm.err != nil {
		return nil, out
	}
	wallLimit := 10 * warm.run.wall
	logf("warm-up repetition: %.2f s (guard: %.0f s wall, %d MB RSS)", warm.run.wall.Seconds(), wallLimit.Seconds(), int64(rssLimitBytes)>>20)

	var wall, cpu, rss []float64
	start := time.Now()
	for i := 0; i < minRepetitions || (time.Since(start)+warm.run.wall).Seconds() <= seconds*campaignShare; i++ {
		rep := e.campaignRepetition(w, wallLimit)
		if rep.err == nil {
			if diff := sameOutput(warm, rep); diff != "" {
				rep.failed, rep.err = w.tests(), fmt.Errorf("repetition %d: %s", i+1, diff)
			}
		}
		out.add(w, rep)
		if rep.run.killed != "" {
			// A runaway costs one repetition, not the machine.
			return nil, out
		}
		if rep.err == nil {
			wall = append(wall, rep.run.wall.Seconds())
			cpu = append(cpu, (rep.run.user + rep.run.sys).Seconds())
			rss = append(rss, float64(rep.run.maxRSSKB)/1024)
		}
		logf("campaign repetition %d: %.2f s wall, %.2f s cpu, %.0f MB", i+1, rep.run.wall.Seconds(), (rep.run.user + rep.run.sys).Seconds(), float64(rep.run.maxRSSKB)/1024)
	}
	if len(wall) < minRepetitions {
		out.problems = append(out.problems, fmt.Sprintf("only %d correct repetitions", len(wall)))
		return nil, out
	}

	var setups []float64
	for i := 0; i < setupRepetitions; i++ {
		s, err := setupRepetition(w)
		if err != nil {
			out.problems = append(out.problems, "set-up: "+err.Error())
			return nil, out
		}
		setups = append(setups, s)
		logf("set-up repetition %d: %.3f s per pass", i+1, s)
	}

	n := float64(w.tests())
	return map[string]float64{
		"tests_per_s":    n / percentile(wall, 25),
		"cpu_s_per_test": percentile(cpu, 25) / n,
		"peak_rss_mb":    slices.Max(rss),
		"setup_s":        percentile(setups, 25),
	}, out
}
