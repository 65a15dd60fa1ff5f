package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

func sampleResults(t *testing.T) []core.Result {
	t.Helper()
	space, err := scenario.NewSpace(
		scenario.Dimension{Name: plugin.DimMACMask, Min: 0, Max: 4095, Step: 1},
		scenario.Dimension{Name: plugin.DimCorrectClients, Min: 10, Max: 250, Step: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []core.Result{
		{
			Scenario:           space.New(map[string]int64{plugin.DimMACMask: 5, plugin.DimCorrectClients: 20}),
			Impact:             0.2,
			Throughput:         4000,
			BaselineThroughput: 5000,
			AvgLatency:         5 * time.Millisecond,
			Generator:          "seed",
		},
		{
			Scenario:           space.New(map[string]int64{plugin.DimMACMask: 9, plugin.DimCorrectClients: 40}),
			Impact:             0.95,
			Throughput:         300,
			BaselineThroughput: 9000,
			AvgLatency:         800 * time.Millisecond,
			CrashedReplicas:    2,
			ViewChanges:        3,
			Generator:          "mutate:maccorrupt",
			Coverage:           oracle.Coverage{Timeline: 0xdeadbeef, Behaviors: 0xcafe, BehaviorCount: 7},
			Violations: []oracle.Violation{
				{Invariant: "pbft/agreement", Detail: "nodes 0 and 1 committed different values at seq 7", Count: 2},
				{Invariant: "pbft/durability", Detail: "node 2 overwrote seq 5", Count: 1},
			},
		},
	}
}

func TestWriteCampaignCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCampaignCSV(&sb, "avd", sampleResults(t)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "strategy,iteration,") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "0.9500") || !strings.Contains(lines[2], "mutate:maccorrupt") {
		t.Errorf("row 2 lacks impact/generator: %q", lines[2])
	}
	if !strings.HasSuffix(lines[0], ",violations,timeline_hash,behavior_digest,behaviors") {
		t.Errorf("header lacks violations/coverage columns: %q", lines[0])
	}
	if !strings.HasSuffix(lines[2], "pbft/agreement;pbft/durability,0xdeadbeef,0xcafe,7") {
		t.Errorf("row 2 lacks violated invariants and coverage digests: %q", lines[2])
	}
	if !strings.HasSuffix(lines[1], ",0x0,0x0,0") {
		t.Errorf("coverage-free row 1 should carry zero digests: %q", lines[1])
	}
	if strings.Contains(lines[1], "pbft/agreement") {
		t.Errorf("violation-free row 1 carries invariants: %q", lines[1])
	}
}

// TestTwoCampaignCSVIsRectangular: a second campaign appended with
// WriteCampaignRows gives every line of the file the header's field count
// (scenario keys are quoted and contain no commas; these rows carry no
// error text).
func TestTwoCampaignCSVIsRectangular(t *testing.T) {
	var sb strings.Builder
	if err := WriteCampaignCSV(&sb, "avd", sampleResults(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignRows(&sb, "random", sampleResults(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("file has %d lines, want header + 2 + 2 rows", len(lines))
	}
	fields := strings.Count(lines[0], ",") + 1
	for i, line := range lines {
		if got := strings.Count(line, ",") + 1; got != fields {
			t.Errorf("line %d has %d fields, header has %d: %q", i+1, got, fields, line)
		}
	}
	if !strings.HasPrefix(lines[3], "random,1,") || !strings.HasPrefix(lines[4], "random,2,") {
		t.Errorf("second campaign rows are not labelled and numbered on their own: %q, %q", lines[3], lines[4])
	}
}

func TestSeriesSelectors(t *testing.T) {
	results := sampleResults(t)
	if got := Series(results, Impact); got[0] != 0.2 || got[1] != 0.95 {
		t.Errorf("Impact series = %v", got)
	}
	if got := Series(results, Throughput); got[1] != 300 {
		t.Errorf("Throughput series = %v", got)
	}
	if got := Series(results, LatencySeconds); got[1] != 0.8 {
		t.Errorf("Latency series = %v", got)
	}
}

func TestRenderSeries(t *testing.T) {
	var sb strings.Builder
	RenderSeries(&sb, "title", "unit", []string{"a", "b"},
		[][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}, 4)
	out := sb.String()
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "r") {
		t.Error("missing series marks")
	}
	if !strings.Contains(out, "iterations 1..4") {
		t.Error("missing x-axis label")
	}
}

// TestRenderSeriesHostile locks the RenderSeries bug fix: negative
// samples used to map to a negative row index and panic with
// index-out-of-range, and NaN poisoned the whole column. Both must
// render on the baseline row instead.
func TestRenderSeriesHostile(t *testing.T) {
	var sb strings.Builder
	RenderSeries(&sb, "hostile", "u", []string{"a"},
		[][]float64{{-3, math.NaN(), 2, math.Inf(-1)}}, 6)
	out := sb.String()
	if !strings.Contains(out, "A") {
		t.Errorf("hostile series lost its marks: %q", out)
	}
	if !strings.Contains(out, "iterations 1..4") {
		t.Errorf("hostile series lost the x-axis: %q", out)
	}
}

func TestRenderSeriesEmpty(t *testing.T) {
	var sb strings.Builder
	RenderSeries(&sb, "t", "u", nil, nil, 4)
	if !strings.Contains(sb.String(), "(no data)") {
		t.Error("empty series should render a placeholder")
	}
}

func heatCells() []HeatCell {
	mk := func(x, y int64, tput, base float64) HeatCell {
		return HeatCell{X: x, Y: y, Result: core.Result{Throughput: tput, BaselineThroughput: base}}
	}
	return []HeatCell{
		mk(0, 20, 5000, 5000), mk(0, 40, 9000, 9000),
		mk(1, 20, 100, 5000), mk(1, 40, 200, 9000), // fully dark column
		mk(2, 20, 3000, 5000), mk(2, 40, 400, 9000), // half dark
	}
}

func TestHeatMapDarkCount(t *testing.T) {
	hm := NewHeatMap(heatCells())
	if got := hm.DarkCount(500); got != 3 {
		t.Errorf("DarkCount = %d, want 3", got)
	}
}

func TestHeatMapDarkColumns(t *testing.T) {
	hm := NewHeatMap(heatCells())
	full := hm.DarkColumns(500, 0.99)
	if len(full) != 1 || full[0] != 1 {
		t.Errorf("fully-dark columns = %v, want [1]", full)
	}
	half := hm.DarkColumns(500, 0.5)
	if len(half) != 2 {
		t.Errorf("half-dark columns = %v, want 2 columns", half)
	}
}

func TestHeatMapRender(t *testing.T) {
	var sb strings.Builder
	hm := NewHeatMap(heatCells())
	hm.Render(&sb, 500, 16)
	out := sb.String()
	if !strings.Contains(out, "#") {
		t.Error("render lacks dark glyphs")
	}
	if !strings.Contains(out, "40 |") || !strings.Contains(out, "20 |") {
		t.Error("render lacks y-axis rows")
	}
}

func TestHeatMapRenderEmpty(t *testing.T) {
	var sb strings.Builder
	NewHeatMap(nil).Render(&sb, 500, 10)
	if !strings.Contains(sb.String(), "empty") {
		t.Error("empty heat map should say so")
	}
}

func TestWriteHeatCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteHeatCSV(&sb, heatCells()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("CSV lines = %d, want header + 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "mac_mask,correct_clients,") {
		t.Errorf("bad header: %q", lines[0])
	}
}

func TestSummarizeCampaign(t *testing.T) {
	var sb strings.Builder
	SummarizeCampaign(&sb, "avd", sampleResults(t))
	out := sb.String()
	if !strings.Contains(out, "best impact 0.950") {
		t.Errorf("summary lacks best impact: %q", out)
	}
	if !strings.Contains(out, "oracle violations: pbft/agreement (1 tests), pbft/durability (1 tests)") {
		t.Errorf("summary lacks oracle violation counts: %q", out)
	}
	if !strings.Contains(out, "reached at test 2") {
		t.Errorf("summary lacks tests-to-impact: %q", out)
	}
	if !strings.Contains(out, "coverage: 1 distinct behavior sets over 1 timelines") {
		t.Errorf("summary lacks coverage line: %q", out)
	}
	if strings.Contains(out, "degraded tests") {
		t.Errorf("summary of a clean campaign reports degraded tests: %q", out)
	}
	// Hung tests are split by cause, in the words core.MeasureWindow uses.
	degraded := append(sampleResults(t),
		core.Result{Hung: true, Error: "raftsim: scenario exceeded the 2000000-event step budget (runaway event storm)"},
		core.Result{Hung: true, Error: "raftsim: scenario exceeded the 2000000-event step budget (runaway event storm)"},
		core.Result{Hung: true, Error: "raftsim: scenario exceeded the 128 MB window-memory ceiling (runaway allocation)"},
		core.Result{Error: "core: target panicked"})
	sb.Reset()
	SummarizeCampaign(&sb, "avd", degraded)
	if want := "degraded tests: 3 hung (2 step budget, 1 memory ceiling), 1 errored (campaign continued)"; !strings.Contains(sb.String(), want) {
		t.Errorf("summary lacks %q: %q", want, sb.String())
	}
	sb.Reset()
	SummarizeCampaign(&sb, "none", nil)
	if !strings.Contains(sb.String(), "no tests") {
		t.Error("empty campaign summary missing")
	}
}
