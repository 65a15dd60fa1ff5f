package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles this command into a temporary directory and returns the
// binary's path.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "fig2")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFig2Smoke: both campaigns run and their rows reach the CSV, one
// header then four rows per strategy; a -csv path that cannot be created
// fails before either campaign starts.
func TestFig2Smoke(t *testing.T) {
	bin := build(t)
	csv := filepath.Join(t.TempDir(), "fig2.csv")
	out, err := exec.Command(bin, "-tests", "4", "-measure", "200ms", "-csv", csv).CombinedOutput()
	if err != nil {
		t.Fatalf("fig2: %v\n%s", err, out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(data), "\n"); rows != 9 {
		t.Errorf("CSV has %d lines, want 9:\n%s", rows, data)
	}

	bad := filepath.Join(t.TempDir(), "missing", "fig2.csv")
	out, err = exec.Command(bin, "-tests", "4", "-measure", "200ms", "-csv", bad).CombinedOutput()
	if err == nil {
		t.Fatalf("fig2 -csv %s exited 0:\n%s", bad, out)
	}
	if strings.Contains(string(out), "campaigns done") {
		t.Errorf("the campaigns ran before the bad -csv path failed:\n%s", out)
	}
}
