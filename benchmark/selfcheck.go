package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runsPerSet is how many runs the driver takes a median and a spread
// over.
const runsPerSet = 10

// runSelfcheck runs whole sets of end-to-end runs back to back — each
// run a fresh harness process with its own seed, as the driver makes
// them — and prints, per workload x end-to-end metric, every set's
// median, quartiles and spread, the largest disagreement between two
// sets' medians, and the declared bound. It passes (exit 0) only when
// every disagreement is at most half its bound and every spread except
// setup_s's is within its bound; the calibration target for a spread is a
// third of the bound. only, when set, restricts it to one workload.
func runSelfcheck(sets int, seconds float64, only string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string][][]float64)
	for set := 0; set < sets; set++ {
		for _, w := range workloads() {
			if only != "" && w.name != only {
				continue
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][][]float64)
				for _, d := range endToEnd {
					values[w.name][d.name] = make([][]float64, sets)
				}
			}
			for run := 0; run < runsPerSet; run++ {
				seed := set*runsPerSet + run + 1
				cmd := exec.Command(self, "-workload", w.name,
					"-seed", strconv.Itoa(seed), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %v\n%s", w.name, seed, err, tail(stderr.String(), 2000))
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: bad result line %q (%v)\n", w.name, seed, lines[len(lines)-1], err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d:", set+1, w.name, seed)
				for _, d := range endToEnd {
					v := res.Metrics[d.name].Value
					values[w.name][d.name][set] = append(values[w.name][d.name][set], v)
					fmt.Fprintf(os.Stderr, " %s=%.4g", d.name, v)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	ok := true
	fmt.Printf("%-22s %-15s %-5s %10s %10s %10s %8s\n", "workload", "metric", "set", "q1", "median", "q3", "spread")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			perSet := values[w.name][d.name]
			if perSet == nil {
				continue
			}
			var medians []float64
			worstSpread := 0.0
			for set, xs := range perSet {
				q1, q2, q3 := quartiles(xs)
				medians = append(medians, q2)
				worstSpread = math.Max(worstSpread, spread(xs))
				fmt.Printf("%-22s %-15s %-5d %10.4g %10.4g %10.4g %7.1f%%\n", w.name, d.name, set+1, q1, q2, q3, 100*spread(xs))
			}
			disagreement := 0.0
			for i := range medians {
				for j := range medians {
					disagreement = math.Max(disagreement, math.Abs(medians[i]-medians[j])/math.Min(medians[i], medians[j]))
				}
			}
			verdict := "ok"
			if disagreement > d.bound/2 || (d.name != "setup_s" && worstSpread > d.bound) {
				verdict, ok = "FAIL", false
			} else if worstSpread > d.bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-22s %-15s sets disagree by %.1f%%, worst spread %.1f%%, bound %.0f%%: %s\n",
				w.name, d.name, 100*disagreement, 100*worstSpread, 100*d.bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
