// Command benchmark is the repository's benchmark: it builds avd and avdd
// from source, drives one campaign workload through those binaries as
// child processes, checks their outputs, and prints the end-to-end
// metrics (tests per second, CPU per test, peak RSS, set-up time). With
// -trace 1 it instead runs the same campaign in-process with spans around
// the calls into each layer's public functions, plus a set of layer
// probes, and prints the per-layer metrics. See README.md.
//
//	bash benchmark/run.sh -workload pbft-fig2 -seed 1 -seconds 30 -trace 0
//	go run -C benchmark . -workload raft-flap -trace 1
//	go run -C benchmark . -list
//	go run -C benchmark . -selfcheck -sets 3
//
// It runs from anywhere inside a checkout of the avd module.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures (the discarded warm-up comes on top).
const defaultSeconds = 30

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "accepted for the driver's command line and logged; unused: every workload's input is one pinned, deterministic campaign (see README)")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long to measure")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics through the built binaries; 1: per-layer metrics from the traced in-process run")
		list      = flag.Bool("list", false, "print workload and metric names and exit")
		selfcheck = flag.Bool("selfcheck", false, "run whole sets of runs back to back and hold their disagreement against the bounds")
		sets      = flag.Int("sets", 3, "with -selfcheck: sets to run")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*sets, *seconds, *name))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
	}

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// The work dir (csv files, state dirs) goes on every exit path, an
	// interrupt included; a child still running goes with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }
	logf("workload %s, seed %d (unused), trace %d", w.name, *seed, *traced)
	var (
		measured map[string]float64
		out      outcome
		defs     = endToEnd
	)
	if *traced != 0 {
		defs = perLayer
		measured, out = e.tracedRun(w, *seconds, logf)
	} else {
		measured, out = e.endToEndRun(w, *seconds, logf)
	}
	e.close()

	for _, p := range out.problems {
		logf("INCORRECT: %s", p)
	}
	if measured == nil {
		// No result line: the run could not measure (a child failed, was
		// killed by the guard, or disagreed with itself).
		logf("no result: %d of %d tests failed", out.failed, out.attempted)
		os.Exit(1)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   fill(defs, measured),
	}
	fmt.Printf("workload %s: %d tests attempted, %d failed, outputs %s\n", w.name, res.Attempted, res.Failed, map[bool]string{true: "correct", false: "INCORRECT"}[res.Correct])
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, measured[d.name], d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printList prints the names later issues quote verbatim.
func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads() {
		fmt.Printf("  %-22s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %-8s %-6s bound %.2f  %s\n", d.name, d.unit, d.better, d.bound, d.about)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	layers := append([]metricDef(nil), perLayer...)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].name < layers[j].name })
	for _, d := range layers {
		fmt.Printf("  %-34s %-8s %-6s %s\n", d.name, d.unit, d.better, d.about)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
