// Command avdlint runs the repository's static-analysis suite: the
// determinism and snapshot contracts that forked==cold execution,
// checkpoint replay and reproducible parallel campaigns rest on
// (DESIGN.md §9).
//
// Usage:
//
//	go run ./cmd/avdlint ./...          # whole module, all analyzers
//	go run ./cmd/avdlint -only nondet ./internal/pbft/...
//	go run ./cmd/avdlint -v ./...       # include suppressed findings
//
// Exit status is 2 when any unsuppressed finding remains, so CI can
// gate on it. Suppressions are //avdlint:allow <reason> comments on (or
// directly above) the offending line; snapshot-field exemptions are
// //avdlint:derived or //avdlint:ephemeral on the field. Every
// suppression must carry a reason — an empty one is itself a finding.
//
// The suite is also exposed through `make lint`. A `go vet -vettool`
// entry point would need golang.org/x/tools' unitchecker, which this
// container cannot fetch; the analyzers are written against an
// api-compatible shape in internal/lint so the port is mechanical when
// the dependency is available. Stock `go vet ./...` is kept clean
// separately (CI runs both).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"avd/internal/lint"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		verbose = flag.Bool("v", false, "also print suppressed findings with their reasons")
		root    = flag.String("C", ".", "module root to analyze")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	analyzers := []*lint.Analyzer{
		lint.NewNondet(),
		lint.NewSnapCover(),
		lint.NewResultCov(lint.CodecSpec{}),
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "avdlint: no analyzer matches -only %q\n", *only)
			os.Exit(1)
		}
		analyzers = filtered
	}

	patterns := flag.Args()
	prog, err := lint.Load(*root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avdlint:", err)
		os.Exit(1)
	}
	rep := lint.RunAnalyzers(prog, analyzers...)

	diags := rep.Unsuppressed()
	shown := diags
	if *verbose {
		shown = rep.Diagnostics()
	}
	for _, d := range shown {
		fmt.Println(rel(prog.Root, d))
	}
	if *verbose {
		suppressed := len(rep.Diagnostics()) - len(diags)
		fmt.Printf("avdlint: %d finding(s), %d suppressed\n", len(diags), suppressed)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "avdlint: %d unsuppressed finding(s)\n", len(diags))
		os.Exit(2)
	}
}

// rel shortens absolute paths in a diagnostic to module-relative ones.
func rel(root string, d lint.Diagnostic) string {
	s := d.String()
	return strings.ReplaceAll(s, root+string(os.PathSeparator), "")
}
