package main

import (
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
	bin := filepath.Join(t.TempDir(), "bigmac")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestBigMACSmoke: the archetypal attack on a small deployment reports
// the deployment it ran and the damage done.
func TestBigMACSmoke(t *testing.T) {
	out, err := exec.Command(build(t), "-clients", "20", "-measure", "200ms").CombinedOutput()
	if err != nil {
		t.Fatalf("bigmac: %v\n%s", err, out)
	}
	for _, want := range []string{"20 correct clients", "baseline throughput", "impact:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestOffGridClientsRefused: -clients 255 used to print "255 correct
// clients" and a 255-client baseline while the attack ran, and was scored,
// at 250. Now it is an error naming the axis and its grid.
func TestOffGridClientsRefused(t *testing.T) {
	out, err := exec.Command(build(t), "-clients", "255", "-measure", "200ms").CombinedOutput()
	if err == nil {
		t.Fatalf("bigmac -clients 255 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "correct_clients must be on 10..250 step 10") {
		t.Errorf("the error does not name the axis and its grid:\n%s", out)
	}
}
