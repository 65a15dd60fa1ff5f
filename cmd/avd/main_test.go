package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/plugin"
)

// built is the binary under test, built once per package run.
var built struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// buildAvd returns the binary under test, building it on first use.
func buildAvd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary")
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "avd-test"); built.err != nil {
			return
		}
		built.path = filepath.Join(built.dir, "avd")
		build := exec.Command("go", "build", "-o", built.path, "avd/cmd/avd")
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.path
}

// TestBadShardFlagExitsBeforeState: a -shard that is not k/K exactly is
// refused before the campaign touches its state directory.
func TestBadShardFlagExitsBeforeState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	out, err := exec.Command(buildAvd(t), "-shard", "1/2/7junk", "-tests", "2", "-state", state).CombinedOutput()
	if err == nil {
		t.Errorf("avd -shard 1/2/7junk exited 0:\n%s", out)
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("the refused run left a state directory behind (stat: %v)", err)
	}
}

// TestResumeAcrossShardPlansRefused: a state directory written when the
// shard plan strode the largest axis (mac_mask) holds another sub-space's
// results. A -shard 0/2 resume over it exits non-zero naming the shard
// axis, before it opens — let alone truncates or appends to — the journal.
func TestResumeAcrossShardPlansRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	setup, err := campaign.Build(campaign.Config{
		Target: "pbft", Strategy: "avd", Tests: 4, Seed: 1,
		Measure: 300 * time.Millisecond, StepBudget: 2_000_000, Workers: 1, Shard: 0, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	old := core.ShardPlan{Shards: 2, Axis: plugin.DimMACMask}
	sub, err := old.Subspace(setup.FullSpace, 0)
	if err != nil {
		t.Fatal(err)
	}
	manifest := setup.Manifest
	manifest.ShardAxis, manifest.Space = old.Axis, core.SpaceSignature(sub)
	paths := campaign.PathsFor(state, 0, 2)
	journal, results := paths.Checkpoint+".journal", []byte("avdjrnl1 and the mask shard's results")
	if err := os.MkdirAll(state, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteManifest(paths.Manifest, manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, results, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(buildAvd(t), "-shard", "0/2", "-tests", "4", "-measure", "300ms", "-state", state, "-quiet").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "shard axis: resuming with correct_clients, campaign was started with mac_mask") {
		t.Errorf("resume over the other plan's state: err %v, want a refusal naming the shard axis:\n%s", err, out)
	}
	if got, err := os.ReadFile(journal); err != nil || string(got) != string(results) {
		t.Errorf("the refused resume touched the journal: %q, %v", got, err)
	}
	if _, err := os.Stat(paths.Checkpoint); !os.IsNotExist(err) {
		t.Errorf("the refused resume left a checkpoint behind (stat: %v)", err)
	}
}

// TestResumeWithChangedMeasureRefused: the manifest's config fingerprint
// covers the workload, so a resume with another -measure exits 1 naming
// config, and a resume with the same flags is accepted.
func TestResumeWithChangedMeasureRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a real campaign")
	}
	dir := t.TempDir()
	bin, state := buildAvd(t), filepath.Join(dir, "state")
	run := func(measure string) ([]byte, error) {
		return exec.Command(bin, "-tests", "2", "-measure", measure, "-state", state, "-quiet").CombinedOutput()
	}
	if out, err := run("200ms"); err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}
	out, err := run("300ms")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "config: resuming with") {
		t.Errorf("resume with -measure 300ms: err %v, want exit 1 naming config:\n%s", err, out)
	}
	if out, err := run("200ms"); err != nil {
		t.Errorf("resume with the same flags: %v\n%s", err, out)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty
// profile behind and the campaign still exits 0, so sizing a change does
// not need a patched binary. The same run checks what the binary prints
// for -workers 0 (the one worker that runs it, as the manifest records)
// and -top 0 (no "top 0 attacks:" header over nothing).
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a real campaign")
	}
	dir := t.TempDir()
	bin := buildAvd(t)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	run := exec.Command(bin, "-tests", "12", "-seed", "3", "-quiet", "-cpuprofile", cpu, "-memprofile", mem, "-workers", "0", "-top", "0")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("avd with profile flags: %v\n%s", err, out)
	}
	if banner, _, _ := strings.Cut(string(out), "\n"); !strings.HasSuffix(banner, " budget=12 workers=1") {
		t.Errorf("-workers 0 banner = %q, want the effective workers=1", banner)
	}
	if strings.Contains(string(out), "attacks:") {
		t.Errorf("-top 0 still prints a top-attacks header:\n%s", out)
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

// TestBadOutputPathExitsBeforeCampaign: an output file that cannot be
// created is refused before the first test runs and before the state
// directory exists — not after the whole budget (-csv), and not in place
// of the checkpoint's final fold (-memprofile).
func TestBadOutputPathExitsBeforeCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := buildAvd(t)
	bad := filepath.Join(dir, "no", "such", "dir", "out")
	for _, flag := range []string{"-csv", "-memprofile", "-cpuprofile"} {
		state := filepath.Join(dir, "state"+flag)
		out, err := exec.Command(bin, "-tests", "3", "-seed", "3", "-quiet", "-state", state, flag, bad).CombinedOutput()
		if err == nil {
			t.Errorf("avd %s %s exited 0:\n%s", flag, bad, out)
		}
		if strings.Contains(string(out), "budget=") || strings.Contains(string(out), "tests in") {
			t.Errorf("avd %s %s started its campaign before failing:\n%s", flag, bad, out)
		}
		if _, err := os.Stat(state); !os.IsNotExist(err) {
			t.Errorf("avd %s %s left a state directory behind (stat: %v)", flag, bad, err)
		}
	}
}

// TestInterruptedMinimizeSkipsMinimization: a -minimize campaign
// interrupted after its first progress line drains the batch in flight,
// prints its summary and exits 3 at once, without the up to -minruns
// re-executions minimization would spend.
func TestInterruptedMinimizeSkipsMinimization(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a real campaign")
	}
	run := exec.Command(buildAvd(t), "-tests", "400", "-seed", "3", "-minimize")
	stdout, err := run.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	run.Stderr = &stderr
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		out.WriteString(lines.Text() + "\n")
		if strings.Contains(lines.Text(), " impact=") {
			if err := run.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for lines.Scan() {
		out.WriteString(lines.Text() + "\n")
	}
	var exit *exec.ExitError
	if err := run.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("interrupted avd -minimize: %v, want exit status 3\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	if strings.Contains(out.String(), "minimizing") {
		t.Errorf("the interrupted campaign still minimized:\n%s", out.String())
	}
	if !strings.Contains(stderr.String(), "-minimize skipped") {
		t.Errorf("stderr does not say minimization was skipped:\n%s", stderr.String())
	}
}

// TestTopAttacksStableByImpact: the top-N list is by impact, and results
// of equal impact keep the order they were executed in (the sort this
// replaced was quadratic and shuffled ties).
func TestTopAttacksStableByImpact(t *testing.T) {
	var results []core.Result
	for i, impact := range []float64{0.2, 0.9, 0.5, 0.9, 0.2, 0.9, 0.5} {
		results = append(results, core.Result{Impact: impact, Generator: strconv.Itoa(i)})
	}
	var got []string
	for _, r := range topAttacks(results, 5) {
		got = append(got, r.Generator)
	}
	if want := []string{"1", "3", "5", "2", "6"}; !slices.Equal(got, want) {
		t.Errorf("top 5 = %v, want %v", got, want)
	}
	if results[0].Generator != "0" {
		t.Error("topAttacks reordered the campaign's own results")
	}
	if n := len(topAttacks(results, 20)); n != len(results) {
		t.Errorf("asking for more than there is returned %d of %d", n, len(results))
	}
	if n := len(topAttacks(results, -1)); n != 0 {
		t.Errorf("-top -1 returned %d results", n)
	}
}

// TestWallLine: a sub-second campaign does not read "0s", the rate is
// there, and the line still starts the way benchmark/parse.go scans it.
func TestWallLine(t *testing.T) {
	got := wallLine(100, 2563400*time.Microsecond)
	if want := "100 tests in 2.563s (wall, 39.0 tests/s)"; got != want {
		t.Errorf("wallLine = %q, want %q", got, want)
	}
	if got := wallLine(12, 87*time.Millisecond); got != "12 tests in 87ms (wall, 137.9 tests/s)" {
		t.Errorf("sub-second wallLine = %q", got)
	}
	var n int
	if _, err := fmt.Sscanf(got, "%d tests in", &n); err != nil || n != 100 {
		t.Errorf("the benchmark's scan of %q found %d, %v", got, n, err)
	}
}
