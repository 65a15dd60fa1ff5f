package main

import (
	"bytes"
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
	bin := filepath.Join(t.TempDir(), "fig3")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSweepMatchesGolden: a 24 x 3 sweep of the band around the Big MAC
// mask writes exactly the cells in testdata/grid.csv. The golden was
// written by the binary that still swept with its own worker pool and
// cold runs, so it pins the port to the Engine's forked runs as exact.
// Regenerate it on purpose with the command below, -csv pointed at it.
func TestSweepMatchesGolden(t *testing.T) {
	bin := build(t)
	csv := filepath.Join(t.TempDir(), "grid.csv")
	cmd := exec.Command(bin, "-maskmin", "2784", "-maskmax", "2880", "-maskstep", "4",
		"-clients", "10,30,60", "-measure", "300ms", "-workers", "2", "-cols", "24", "-csv", csv)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fig3: %v\n%s", err, out)
	}
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "grid.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep CSV differs from testdata/grid.csv:\n%s", got)
	}
}

// TestOffGridClientsRefused: a client count between the grid's steps is
// an error naming the axis and its grid, not a sweep of the nearest one.
func TestOffGridClientsRefused(t *testing.T) {
	out, err := exec.Command(build(t), "-clients", "20,255", "-maskmax", "2").CombinedOutput()
	if err == nil {
		t.Fatalf("fig3 -clients 20,255 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "correct_clients must be on 10..250 step 10") {
		t.Errorf("the error does not name the axis and its grid:\n%s", out)
	}
}
