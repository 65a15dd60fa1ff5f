package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/trace"
)

// fig3 regenerates Figure 3 of the paper: an exhaustively explored subset
// of the PBFT MAC-corruption hyperspace, plotted as a heat map with x =
// the MAC corruption bitmask coordinate (in Gray code) and y = the number
// of correct clients. Dark points are scenarios where PBFT's throughput
// drops below 500 requests/second, exposing the vertical-line structure
// that makes the space suitable for hill-climbing.
func fig3(args []string) {
	fs := flag.NewFlagSet("avd fig3", flag.ExitOnError)
	var (
		maskMin   = fs.Int64("maskmin", 0, "sweep mask coordinates starting here")
		maskMax   = fs.Int64("maskmax", 1024, "sweep mask coordinates [maskmin, maskmax); the default window matches the paper's Figure 3 x-axis")
		maskStep  = fs.Int64("maskstep", 1, "coordinate stride (1 = full resolution, as in the paper)")
		clientsCS = fs.String("clients", "20,40,60,80,100", "comma-separated correct-client counts (the y axis)")
		measure   = fs.Duration("measure", 1500*time.Millisecond, "virtual measurement window per test")
		dark      = fs.Float64("dark", 500, "dark-point throughput threshold (req/s)")
		csvPath   = fs.String("csv", "", "write raw cells to this CSV file")
		cols      = fs.Int("cols", 128, "heat map width in character columns")
	)
	parseFlags(fs, args)

	clientCounts, err := parseInts(*clientsCS)
	if err != nil {
		fatal(err)
	}
	if *maskStep < 1 {
		fatal(fmt.Errorf("-maskstep %d must be at least 1", *maskStep))
	}
	if *maskMax <= *maskMin {
		fatal(fmt.Errorf("-maskmax %d must be above -maskmin %d", *maskMax, *maskMin))
	}
	runner, err := cluster.NewRunner(pbftWorkload(*measure))
	if err != nil {
		fatal(err)
	}
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		fatal(err)
	}

	var scs []scenario.Scenario
	coords := 0
	for coord := *maskMin; coord < *maskMax; coord += *maskStep {
		coords++
		for _, cc := range clientCounts {
			vals := map[string]int64{
				plugin.DimMACMask:          coord,
				plugin.DimCorrectClients:   cc,
				plugin.DimMaliciousClients: 1,
			}
			checkGrid(space, vals)
			scs = append(scs, space.New(vals))
		}
	}
	// The output file opens before the sweep spends its time, so a path
	// that cannot be written fails at once.
	csvFile := createOutput(*csvPath)
	fmt.Printf("exhaustively exploring %d scenarios (%d mask coords x %d client counts)\n",
		len(scs), coords, len(clientCounts))
	start := time.Now()
	// A list explorer ignores feedback, so the batch moves no result: it
	// is as wide as the machine runs tests at once.
	eng, err := core.NewEngine(runner, core.WithExplorer(core.NewListExplorer(scs)),
		core.WithBudget(len(scs)), core.WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("swept in %v (wall)\n\n", time.Since(start).Round(time.Second))

	cells := make([]trace.HeatCell, len(results))
	for i, res := range results {
		cells[i] = trace.HeatCell{
			X:      res.Scenario.GetOr(plugin.DimMACMask, 0),
			Y:      res.Scenario.GetOr(plugin.DimCorrectClients, 0),
			Result: res,
		}
	}
	hm := trace.NewHeatMap(cells)
	fmt.Printf("Figure 3: PBFT MAC fault-injection subspace (y = correct clients, x = Gray-coded mask)\n")
	hm.Render(os.Stdout, *dark, *cols)
	total := len(results)
	darkN := hm.DarkCount(*dark)
	fmt.Printf("\ndark points: %d / %d (%.1f%%)\n", darkN, total, 100*float64(darkN)/float64(total))
	darkCols := hm.DarkColumns(*dark, 0.99)
	fmt.Printf("fully-dark columns (vertical lines): %d\n", len(darkCols))
	if len(darkCols) > 0 {
		fmt.Printf("  at coordinates: %s\n", summarizeRuns(darkCols, *maskStep))
	}

	if csvFile != nil {
		err := trace.WriteHeatCSV(csvFile, cells)
		if err = errors.Join(err, csvFile.Close()); err != nil {
			fatal(fmt.Errorf("csv: %w", err))
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

func parseInts(cs string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(cs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad client count %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts given")
	}
	return out, nil
}

// summarizeRuns renders sorted coordinates as compact ranges.
func summarizeRuns(coords []int64, step int64) string {
	var parts []string
	for i := 0; i < len(coords); {
		j := i
		for j+1 < len(coords) && coords[j+1] == coords[j]+step {
			j++
		}
		if i == j {
			parts = append(parts, strconv.FormatInt(coords[i], 10))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", coords[i], coords[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}
