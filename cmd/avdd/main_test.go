package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"avd/internal/core"
	"avd/internal/supervise"
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

// TestZeroTestsRefusedBeforeWorkers: every worker exited 1 on the
// engine's "budget 0 must be positive" and the supervisor restarted each
// until its retries ran out (six starts per shard). -tests below 1 is now
// refused once, naming the flag, before a worker starts or the state
// directory exists.
func TestZeroTestsRefusedBeforeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	avd, avdd := buildBinaries(t)
	for _, tests := range []string{"0", "-2"} {
		state := filepath.Join(t.TempDir(), "state")
		out, err := exec.Command(avdd, "-worker", avd, "-state", state, "-shards", "2", "-tests", tests,
			"-retries", "1", "-backoff", "1ms").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-tests "+tests) {
			t.Errorf("avdd -tests %s: %v, want a non-zero exit naming -tests:\n%s", tests, err, out)
		}
		if _, err := os.Stat(state); !os.IsNotExist(err) {
			t.Errorf("avdd -tests %s started workers: the state directory exists (stat: %v)\n%s", tests, err, out)
		}
	}
}

// TestRetiredStrategyRefused: a flag Build rejects is a usage error, exit
// status 2 like avdd's own, before a worker starts or the state
// directory exists; it used to exit 1.
func TestRetiredStrategyRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	avd, avdd := buildBinaries(t)
	state := filepath.Join(t.TempDir(), "state")
	out, err := exec.Command(avdd, "-worker", avd, "-state", state, "-strategy", "genetic").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "avd, random or coverage") {
		t.Errorf("avdd -strategy genetic: %v, want exit status 2 naming the strategies:\n%s", err, out)
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

// TestCompletedShardWithoutJournalRefused: a worker that exits 0 without
// journaling anything completes its shard with no durable state. The
// merge used to read the missing journal as zero results and print a
// short summary; it now exits 1 naming the shard and the journal.
func TestCompletedShardWithoutJournalRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, avdd := buildBinaries(t)
	dir := t.TempDir()
	worker := filepath.Join(dir, "worker")
	if err := os.WriteFile(worker, []byte("#!/bin/sh\nexit 0\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state")
	out, err := exec.Command(avdd, "-worker", worker, "-shards", "2", "-state", state, "-tests", "2").CombinedOutput()
	var exit *exec.ExitError
	journal := filepath.Join(state, "shard-0-of-2.ckpt.journal")
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "shard 0: ") || !strings.Contains(string(out), journal) {
		t.Errorf("avdd over a journal-less shard: %v, want exit status 1 naming shard 0 and %s:\n%s", err, journal, out)
	}
	if strings.Contains(string(out), "campaign fingerprint") {
		t.Errorf("avdd merged the journal-less shards:\n%s", out)
	}
}

// TestRefusedStateNotRetried: a state directory its workers refuse — the
// flags drifted, or a journal is not one — used to be restarted like a
// crash, six starts per shard and about eight seconds of backoff. A worker
// now exits supervise.ExitRefused and its shard fails on the first start,
// with every state file as it was.
func TestRefusedStateNotRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs real campaigns")
	}
	avd, avdd := buildBinaries(t)
	for _, tc := range []struct {
		name    string
		refused []int // shards whose workers refuse the state
		damage  func(t *testing.T, state string)
		flags   []string
	}{
		{"drifted seed", []int{0, 1}, func(*testing.T, string) {}, []string{"-seed", "2"}},
		{"garbage journal", []int{0}, func(t *testing.T, state string) {
			if err := os.WriteFile(filepath.Join(state, "shard-0-of-2.ckpt.journal"), []byte("NOTMAGIC"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := filepath.Join(t.TempDir(), "state")
			args := []string{"-worker", avd, "-shards", "2", "-state", state, "-tests", "3", "-measure", "300ms", "-retries", "5", "-backoff", "10ms"}
			if out, err := exec.Command(avdd, args...).CombinedOutput(); err != nil {
				t.Fatalf("first campaign: %v\n%s", err, out)
			}
			tc.damage(t, state)
			before := readDir(t, state)
			out, _ := exec.Command(avdd, append(args, tc.flags...)...).CombinedOutput()
			for _, k := range tc.refused {
				want := fmt.Sprintf("avdd: shard %d: FAILED: exit code %d: state refused, not retried (1 starts, 0 hung kills)\n", k, supervise.ExitRefused)
				if !strings.Contains(string(out), want) {
					t.Errorf("want %q in:\n%s", want, out)
				}
			}
			after := readDir(t, state)
			if len(after) != len(before) {
				t.Errorf("state files %d before the refused run, %d after", len(before), len(after))
			}
			for name, data := range before {
				if !bytes.Equal(after[name], data) {
					t.Errorf("the refused run changed %s", name)
				}
			}
		})
	}
}

// readDir returns the contents of every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
