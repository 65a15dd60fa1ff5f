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
	bin := filepath.Join(t.TempDir(), "power")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestPowerSmoke: every power level gets its row.
func TestPowerSmoke(t *testing.T) {
	out, err := exec.Command(build(t), "-budget", "4", "-seeds", "1", "-measure", "200ms").CombinedOutput()
	if err != nil {
		t.Fatalf("power: %v\n%s", err, out)
	}
	for _, level := range []string{"client MAC corruption only", "+ deployment shape", "+ network reordering", "+ compromised replica"} {
		if !strings.Contains(string(out), level) {
			t.Errorf("output lacks the %q row:\n%s", level, out)
		}
	}
}
