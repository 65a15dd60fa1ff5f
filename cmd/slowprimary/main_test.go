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
	bin := filepath.Join(t.TempDir(), "slowprimary")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSlowPrimarySmoke: the buggy single timer keeps the slow primary,
// the per-request timers depose it.
func TestSlowPrimarySmoke(t *testing.T) {
	out, err := exec.Command(build(t), "-measure", "6s").CombinedOutput()
	if err != nil {
		t.Fatalf("slowprimary: %v\n%s", err, out)
	}
	for row, verdict := range map[string]string{
		"slow primary, single timer (the bug)":   "primary kept",
		"slow primary, per-request timers (fix)": "primary deposed",
	} {
		_, rest, found := strings.Cut(string(out), row)
		line, _, _ := strings.Cut(rest, "\n")
		if !found || !strings.Contains(line, verdict) {
			t.Errorf("the %q row does not say %q:\n%s", row, verdict, out)
		}
	}
}
