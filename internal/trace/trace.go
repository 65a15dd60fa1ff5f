// Package trace records exploration campaigns and renders them as CSV
// and as terminal plots, regenerating the paper's figures: per-iteration
// impact/throughput/latency series (Figure 2) and hyperspace heat maps
// (Figure 3).
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
)

// WriteCampaignCSV writes the header and one row per executed test:
// iteration, scenario parameters, impact, throughput, latency,
// crash/view-change counters, injected crash-restart activity,
// degraded-test markers, and the oracle invariants the run violated
// (semicolon-joined).
func WriteCampaignCSV(w io.Writer, label string, results []core.Result) error {
	if _, err := fmt.Fprintln(w, "strategy,iteration,scenario,impact,throughput_rps,baseline_rps,avg_latency_s,crashed_replicas,view_changes,injected_crashes,restarts,hung,error,generator,violations,timeline_hash,behavior_digest,behaviors"); err != nil {
		return err
	}
	return WriteCampaignRows(w, label, results)
}

// WriteCampaignRows writes WriteCampaignCSV's rows without its header, so
// a second campaign can follow the first in one file under another label.
func WriteCampaignRows(w io.Writer, label string, results []core.Result) error {
	for i, r := range results {
		errLine := r.Error
		if nl := strings.IndexByte(errLine, '\n'); nl >= 0 {
			errLine = errLine[:nl] // keep the message, drop the stack trace
		}
		_, err := fmt.Fprintf(w, "%s,%d,%q,%.4f,%.1f,%.1f,%.4f,%d,%d,%d,%d,%t,%q,%s,%s,%#x,%#x,%d\n",
			label, i+1, r.Scenario.Key(), r.Impact, r.Throughput, r.BaselineThroughput,
			r.AvgLatency.Seconds(), r.CrashedReplicas, r.ViewChanges,
			r.InjectedCrashes, r.Restarts, r.Hung, errLine, r.Generator,
			strings.Join(oracle.Names(r.Violations), ";"),
			r.Coverage.Timeline, r.Coverage.Behaviors, r.Coverage.BehaviorCount)
		if err != nil {
			return err
		}
	}
	return nil
}

// Series extracts a per-iteration metric from campaign results.
func Series(results []core.Result, metric func(core.Result) float64) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = metric(r)
	}
	return out
}

// Impact is a metric selector for Series.
func Impact(r core.Result) float64 { return r.Impact }

// Throughput is a metric selector for Series.
func Throughput(r core.Result) float64 { return r.Throughput }

// LatencySeconds is a metric selector for Series.
func LatencySeconds(r core.Result) float64 { return r.AvgLatency.Seconds() }

// RenderSeries draws an ASCII chart comparing named float series over
// iterations (the terminal rendition of Figure 2's panels). Values are
// scaled into `height` rows against the global maximum.
func RenderSeries(w io.Writer, title, yLabel string, names []string, series [][]float64, height int) {
	if height < 2 {
		height = 8
	}
	maxLen, maxVal := 0, 0.0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
		for _, v := range s {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	if maxLen == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	if maxVal == 0 {
		maxVal = 1
	}
	marks := []byte{'A', 'r', 'x', 'o', '+'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", maxLen))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for x, v := range s {
			// Clamp the projection into the grid: NaN and negative values
			// sit on the baseline row, values above the scale on the top
			// row (series like impact deltas can legitimately go negative).
			y := 0
			if !math.IsNaN(v) && v > 0 {
				y = int(v / maxVal * float64(height-1))
			}
			if y < 0 {
				y = 0
			}
			if y > height-1 {
				y = height - 1
			}
			grid[height-1-y][x] = mark
		}
	}
	for i, row := range grid {
		val := maxVal * float64(height-1-i) / float64(height-1)
		fmt.Fprintf(w, "%10.1f |%s\n", val, string(row))
	}
	fmt.Fprintf(w, "%10s +%s\n", "", strings.Repeat("-", maxLen))
	fmt.Fprintf(w, "%10s  iterations 1..%d (%s)", "", maxLen, yLabel)
	fmt.Fprintln(w)
	for si, name := range names {
		fmt.Fprintf(w, "%10s  %c = %s\n", "", marks[si%len(marks)], name)
	}
}

// HeatCell is one measured point of a 2-D hyperspace slice.
type HeatCell struct {
	X, Y   int64
	Result core.Result
}

// HeatMap renders the Figure-3 style plot: x = MAC-mask coordinate
// (Gray code), y = number of correct clients; a cell is dark ('#') when
// the measured throughput drops below darkThreshold req/s, medium ('+')
// below 50% of baseline, light ('.') otherwise.
type HeatMap struct {
	cells map[[2]int64]core.Result
	xs    []int64
	ys    []int64
}

// NewHeatMap builds a heat map from measured cells.
func NewHeatMap(cells []HeatCell) *HeatMap {
	h := &HeatMap{cells: make(map[[2]int64]core.Result, len(cells))}
	seenX := make(map[int64]bool)
	seenY := make(map[int64]bool)
	for _, c := range cells {
		h.cells[[2]int64{c.X, c.Y}] = c.Result
		if !seenX[c.X] {
			seenX[c.X] = true
			h.xs = insertSorted(h.xs, c.X)
		}
		if !seenY[c.Y] {
			seenY[c.Y] = true
			h.ys = insertSorted(h.ys, c.Y)
		}
	}
	return h
}

func insertSorted(s []int64, v int64) []int64 {
	pos := len(s)
	for i, x := range s {
		if v < x {
			pos = i
			break
		}
	}
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

// DarkCount returns how many cells fall below the throughput threshold —
// the "dark points" of Figure 3.
func (h *HeatMap) DarkCount(darkThreshold float64) int {
	n := 0
	for _, r := range h.cells {
		if r.Throughput < darkThreshold {
			n++
		}
	}
	return n
}

// DarkColumns returns the x coordinates where at least minFraction of
// the measured rows are dark — the "vertical lines" structure of
// Figure 3.
func (h *HeatMap) DarkColumns(darkThreshold, minFraction float64) []int64 {
	var cols []int64
	for _, x := range h.xs {
		dark, total := 0, 0
		for _, y := range h.ys {
			if r, ok := h.cells[[2]int64{x, y}]; ok {
				total++
				if r.Throughput < darkThreshold {
					dark++
				}
			}
		}
		if total > 0 && float64(dark)/float64(total) >= minFraction {
			cols = append(cols, x)
		}
	}
	return cols
}

// Render draws the map, binning x coordinates into at most maxCols
// columns (a bin is as dark as its darkest cell, mirroring how Figure 3
// overplots 4096 points on a page width).
func (h *HeatMap) Render(w io.Writer, darkThreshold float64, maxCols int) {
	if len(h.xs) == 0 {
		fmt.Fprintln(w, "(empty heat map)")
		return
	}
	if maxCols <= 0 {
		maxCols = 128
	}
	bins := maxCols
	if len(h.xs) < bins {
		bins = len(h.xs)
	}
	perBin := (len(h.xs) + bins - 1) / bins
	fmt.Fprintf(w, "dark '#': throughput < %.0f req/s; '+': < 50%% of baseline; '.': healthy\n", darkThreshold)
	for i := len(h.ys) - 1; i >= 0; i-- {
		y := h.ys[i]
		var row strings.Builder
		for b := 0; b < bins; b++ {
			glyph := byte(' ')
			for k := b * perBin; k < (b+1)*perBin && k < len(h.xs); k++ {
				r, ok := h.cells[[2]int64{h.xs[k], y}]
				if !ok {
					continue
				}
				g := cellGlyph(r, darkThreshold)
				if rank(g) > rank(glyph) {
					glyph = g
				}
			}
			row.WriteByte(glyph)
		}
		fmt.Fprintf(w, "%4d |%s\n", y, row.String())
	}
	fmt.Fprintf(w, "%4s +%s\n", "", strings.Repeat("-", bins))
	fmt.Fprintf(w, "%4s  mac_mask coordinate %d..%d (Gray code), %d bins\n", "", h.xs[0], h.xs[len(h.xs)-1], bins)
}

func cellGlyph(r core.Result, darkThreshold float64) byte {
	switch {
	case r.Throughput < darkThreshold:
		return '#'
	case r.BaselineThroughput > 0 && r.Throughput < 0.5*r.BaselineThroughput:
		return '+'
	default:
		return '.'
	}
}

func rank(g byte) int {
	switch g {
	case '#':
		return 3
	case '+':
		return 2
	case '.':
		return 1
	default:
		return 0
	}
}

// WriteHeatCSV writes the raw heat-map cells.
func WriteHeatCSV(w io.Writer, cells []HeatCell) error {
	if _, err := fmt.Fprintln(w, "mac_mask,correct_clients,throughput_rps,baseline_rps,impact,avg_latency_s,crashed_replicas,view_changes"); err != nil {
		return err
	}
	for _, c := range cells {
		r := c.Result
		_, err := fmt.Fprintf(w, "%d,%d,%.1f,%.1f,%.4f,%.4f,%d,%d\n",
			c.X, c.Y, r.Throughput, r.BaselineThroughput, r.Impact,
			r.AvgLatency.Seconds(), r.CrashedReplicas, r.ViewChanges)
		if err != nil {
			return err
		}
	}
	return nil
}

// SummarizeCampaign produces the terminal summary table of a campaign.
func SummarizeCampaign(w io.Writer, label string, results []core.Result) {
	best := core.BestSoFar(results)
	if len(results) == 0 {
		fmt.Fprintf(w, "%s: no tests executed\n", label)
		return
	}
	final := best[len(best)-1]
	fmt.Fprintf(w, "%s: %d tests, best impact %.3f (throughput %.0f req/s vs baseline %.0f, avg latency %v)\n",
		label, len(results), final.Impact, final.Throughput, final.BaselineThroughput,
		final.AvgLatency.Round(time.Millisecond))
	fmt.Fprintf(w, "  best scenario: %s\n", final.Scenario.Key())
	if final.CrashedReplicas > 0 || final.ViewChanges > 0 {
		fmt.Fprintf(w, "  best-test protocol damage: %d crashed replicas, %d view changes\n",
			final.CrashedReplicas, final.ViewChanges)
	}
	// Per-generator test counts and best impact, in first-seen order, so
	// mixed campaigns (random + exhaustive refinement) show where the
	// winning scenarios came from.
	genCounts := make(map[string]int)
	genBest := make(map[string]float64)
	var genOrder []string
	for _, r := range results {
		g := r.Generator
		if g == "" {
			continue
		}
		if genCounts[g] == 0 {
			genOrder = append(genOrder, g)
		}
		genCounts[g]++
		if r.Impact > genBest[g] {
			genBest[g] = r.Impact
		}
	}
	if len(genOrder) > 0 {
		parts := make([]string, len(genOrder))
		for i, g := range genOrder {
			parts[i] = fmt.Sprintf("%s (%d tests, best %.3f)", g, genCounts[g], genBest[g])
		}
		fmt.Fprintf(w, "  generators: %s\n", strings.Join(parts, ", "))
	}
	if n := core.TestsToImpact(results, 0.9); n > 0 {
		fmt.Fprintf(w, "  impact >= 0.90 first reached at test %d\n", n)
	} else {
		fmt.Fprintf(w, "  impact >= 0.90 never reached\n")
	}
	// Count how many tests tripped each invariant, in first-seen order.
	counts := make(map[string]int)
	var order []string
	for _, r := range results {
		for _, inv := range oracle.Names(r.Violations) {
			if counts[inv] == 0 {
				order = append(order, inv)
			}
			counts[inv]++
		}
	}
	if len(order) > 0 {
		parts := make([]string, len(order))
		for i, inv := range order {
			parts[i] = fmt.Sprintf("%s (%d tests)", inv, counts[inv])
		}
		fmt.Fprintf(w, "  oracle violations: %s\n", strings.Join(parts, ", "))
	}
	// Injected crash-restart fault activity and degraded tests. Hung tests
	// are split by what cut them short (core.MeasureWindow names it in the
	// Error): verdicts lost to memory are a defect in the target, verdicts
	// lost to the step budget are the scenario's doing.
	var crashes, restarts uint64
	hung, ceiling, errored := 0, 0, 0
	for _, r := range results {
		crashes += r.InjectedCrashes
		restarts += r.Restarts
		if r.Hung {
			hung++
			if strings.Contains(r.Error, "window-memory ceiling") {
				ceiling++
			}
		} else if r.Error != "" {
			errored++
		}
	}
	if crashes > 0 || restarts > 0 {
		fmt.Fprintf(w, "  injected crashes: %d (restarts %d)\n", crashes, restarts)
	}
	if hung > 0 || errored > 0 {
		fmt.Fprintf(w, "  degraded tests: %d hung (%d step budget, %d memory ceiling), %d errored (campaign continued)\n",
			hung, hung-ceiling, ceiling, errored)
	}
	// Coverage feedback: how much behavioral diversity the campaign saw
	// (results without a digest — degraded runs, pre-coverage
	// checkpoints — are skipped).
	behaviors := make(map[uint64]bool)
	timelines := make(map[uint64]bool)
	for _, r := range results {
		if r.Coverage.IsZero() {
			continue
		}
		behaviors[r.Coverage.Behaviors] = true
		timelines[r.Coverage.Timeline] = true
	}
	if len(timelines) > 0 {
		fmt.Fprintf(w, "  coverage: %d distinct behavior sets over %d timelines\n",
			len(behaviors), len(timelines))
	}
}
