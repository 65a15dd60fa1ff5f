package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty
// profile behind and the campaign still exits 0, so sizing a change does
// not need a patched binary.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a real campaign")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "avd")
	build := exec.Command("go", "build", "-o", bin, "avd/cmd/avd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	run := exec.Command(bin, "-tests", "12", "-seed", "3", "-quiet", "-cpuprofile", cpu, "-memprofile", mem)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("avd with profile flags: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
