package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"avd/internal/core"
)

// buildBinaries compiles cmd/avd and cmd/avdd into a temp dir once per
// test run. The children run as real processes — the kill-storm proof
// needs genuine SIGKILL, fsync and process-restart behavior, not an
// in-process simulation.
func buildBinaries(t *testing.T) (avd, avdd string) {
	t.Helper()
	dir := t.TempDir()
	avd = filepath.Join(dir, "avd")
	avdd = filepath.Join(dir, "avdd")
	for bin, pkg := range map[string]string{avd: "avd/cmd/avd", avdd: "avd/cmd/avdd"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return avd, avdd
}

// TestBadCSVPathExitsBeforeWorkers: a -csv that cannot be created is
// refused before a worker starts or the state directory exists, not after
// every shard has spent its budget.
func TestBadCSVPathExitsBeforeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	avd, avdd := buildBinaries(t)
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	out, err := exec.Command(avdd, "-worker", avd, "-state", state, "-tests", "3",
		"-csv", filepath.Join(dir, "no", "such", "dir", "out.csv")).CombinedOutput()
	if err == nil {
		t.Errorf("avdd with an unwritable -csv exited 0:\n%s", out)
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("the refused run left a state directory behind (stat: %v)\n%s", err, out)
	}
}

// TestStrayArgumentRefused: flag parsing stops at the first word that is
// not a flag, and the flags after it used to be dropped without a word —
// this ran a PBFT campaign. Leftover arguments now exit 2, named, before a
// worker starts or the state directory exists.
func TestStrayArgumentRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	avd, avdd := buildBinaries(t)
	state := filepath.Join(t.TempDir(), "state")
	out, err := exec.Command(avdd, "-worker", avd, "-state", state, "-shards", "1", "-tests", "1",
		"-measure", "100ms", "stray", "-target", "raft").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "stray -target raft") {
		t.Errorf("avdd with a stray word: %v, want exit status 2 naming it:\n%s", err, out)
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("the refused run left a state directory behind (stat: %v)", err)
	}
}

// TestKillStormBitIdentical is the tentpole's proof: a supervised
// sharded campaign whose workers are SIGKILLed mid-run must produce a
// merged campaign — results, violations, coverage digests, test counts
// — bit-identical to an uninterrupted run of the same seed and plan.
// Each SIGKILLed worker restarts, truncates any torn journal tail,
// replays its durable checkpoint and re-executes only what was never
// acknowledged; the merge then proves zero tests were lost or
// double-counted, because the summary embeds the FNV-64a fingerprint of
// the full merged checkpoint encoding.
func TestKillStormBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs real campaigns")
	}
	avd, avdd := buildBinaries(t)
	work := t.TempDir()

	run := func(name string, extra ...string) []byte {
		t.Helper()
		state := filepath.Join(work, name)
		summary := filepath.Join(work, name+".summary")
		args := []string{
			"-worker", avd,
			"-shards", "3",
			"-state", state,
			"-tests", "10",
			"-seed", "3",
			"-measure", "300ms",
			"-retries", "10",
			"-backoff", "50ms",
			"-summary", summary,
		}
		args = append(args, extra...)
		cmd := exec.Command(avdd, args...)
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		if out, err := cmd.Output(); err != nil {
			t.Fatalf("%s campaign: %v\nstdout:\n%s\nstderr:\n%s", name, err, out, errBuf.String())
		}
		t.Logf("%s supervision log:\n%s", name, errBuf.String())
		data, err := os.ReadFile(summary)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	clean := run("clean")
	storm := run("storm", "-storm", "5", "-stormevery", "250ms")
	if !bytes.Equal(clean, storm) {
		t.Fatalf("kill-storm campaign diverged from the uninterrupted run\n--- clean ---\n%s\n--- storm ---\n%s", clean, storm)
	}
	if n := bytes.Count(clean, []byte(": impact >= 0.90 ")); n != 3 {
		t.Errorf("summary has %d per-shard impact lines, want one per shard:\n%s", n, clean)
	}
}

// TestShardImpactLines: each shard's tests-to-impact counts that shard's
// own tests. The merged stream is shard 0's results and then shard 1's,
// so its one "first reached at test N" line puts an attack shard 1 found
// on its 2nd test at test 5 when shard 0 ran three tests and found nothing.
func TestShardImpactLines(t *testing.T) {
	impacts := func(values ...float64) []core.Result {
		results := make([]core.Result, len(values))
		for i, v := range values {
			results[i].Impact = v
		}
		return results
	}
	perShard := [][]core.Result{impacts(0.1, 0.2, 0.3), impacts(0.5, 0.95, 0.99), nil}
	if n := core.TestsToImpact(slices.Concat(perShard...), 0.9); n != 5 {
		t.Fatalf("merged stream reaches impact 0.9 at test %d, want 5", n)
	}
	var sb strings.Builder
	shardImpactLines(&sb, perShard)
	want := "  shard 0: impact >= 0.90 never reached\n" +
		"  shard 1: impact >= 0.90 first reached at its test 2\n"
	if sb.String() != want {
		t.Errorf("per-shard lines:\n%swant:\n%s", sb.String(), want)
	}
}
