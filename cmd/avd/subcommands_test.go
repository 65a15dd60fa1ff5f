package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFig2Smoke: both campaigns run and their rows reach the CSV, one
// header then four rows per strategy; a -csv path that cannot be created
// fails before either campaign starts.
func TestFig2Smoke(t *testing.T) {
	bin := buildAvd(t)
	csv := filepath.Join(t.TempDir(), "fig2.csv")
	out, err := exec.Command(bin, "fig2", "-tests", "4", "-measure", "200ms", "-csv", csv).CombinedOutput()
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
	out, err = exec.Command(bin, "fig2", "-tests", "4", "-measure", "200ms", "-csv", bad).CombinedOutput()
	if err == nil {
		t.Fatalf("fig2 -csv %s exited 0:\n%s", bad, out)
	}
	if strings.Contains(string(out), "campaigns done") {
		t.Errorf("the campaigns ran before the bad -csv path failed:\n%s", out)
	}
}

// TestSweepMatchesGolden: a 24 x 3 sweep of the band around the Big MAC
// mask writes exactly the cells in testdata/grid.csv. The golden was
// written by the binary that still swept with its own worker pool and
// cold runs, so it pins the port to the Engine's forked runs as exact.
// Regenerate it on purpose with the command below, -csv pointed at it.
func TestSweepMatchesGolden(t *testing.T) {
	bin := buildAvd(t)
	csv := filepath.Join(t.TempDir(), "grid.csv")
	cmd := exec.Command(bin, "fig3", "-maskmin", "2784", "-maskmax", "2880", "-maskstep", "4",
		"-clients", "10,30,60", "-measure", "300ms", "-cols", "24", "-csv", csv)
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

// TestFig3OffGridClientsRefused: a client count between the grid's steps
// is an error naming the axis and its grid, not a sweep of the nearest one.
func TestFig3OffGridClientsRefused(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "fig3", "-clients", "20,255", "-maskmax", "2").CombinedOutput()
	if err == nil {
		t.Fatalf("fig3 -clients 20,255 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "correct_clients must be on 10..250 step 10") {
		t.Errorf("the error does not name the axis and its grid:\n%s", out)
	}
}

// TestPowerSmoke: every power level gets its row.
func TestPowerSmoke(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "power", "-budget", "4", "-seeds", "1", "-measure", "200ms").CombinedOutput()
	if err != nil {
		t.Fatalf("power: %v\n%s", err, out)
	}
	for _, level := range []string{"client MAC corruption only", "+ deployment shape", "+ network reordering", "+ compromised replica"} {
		if !strings.Contains(string(out), level) {
			t.Errorf("output lacks the %q row:\n%s", level, out)
		}
	}
}

// TestBigMACSmoke: the archetypal attack on a small deployment reports
// the deployment it ran and the damage done.
func TestBigMACSmoke(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "bigmac", "-clients", "20", "-measure", "200ms").CombinedOutput()
	if err != nil {
		t.Fatalf("bigmac: %v\n%s", err, out)
	}
	for _, want := range []string{"20 correct clients", "baseline throughput", "impact:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestBigMACOffGridClientsRefused: -clients 255 used to print "255
// correct clients" and a 255-client baseline while the attack ran, and was
// scored, at 250. Now it is an error naming the axis and its grid.
func TestBigMACOffGridClientsRefused(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "bigmac", "-clients", "255", "-measure", "200ms").CombinedOutput()
	if err == nil {
		t.Fatalf("bigmac -clients 255 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "correct_clients must be on 10..250 step 10") {
		t.Errorf("the error does not name the axis and its grid:\n%s", out)
	}
}

// TestSlowPrimarySmoke: the buggy single timer keeps the slow primary,
// the per-request timers depose it.
func TestSlowPrimarySmoke(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "slowprimary", "-measure", "6s").CombinedOutput()
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

// TestUnknownSubcommandListsSubcommands: a first word that names no
// subcommand exits 2 and lists the ones there are, instead of running the
// default campaign.
func TestUnknownSubcommandListsSubcommands(t *testing.T) {
	out, err := exec.Command(buildAvd(t), "bogus").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("avd bogus: %v, want exit status 2:\n%s", err, out)
	}
	for _, sub := range subcommands {
		if !strings.Contains(string(out), sub.name) {
			t.Errorf("the usage lacks subcommand %q:\n%s", sub.name, out)
		}
	}
}

// TestStrayArgumentsRefused: flag parsing stops at the first word that is
// not a flag. Every flag after it used to be dropped without a word, so
// the first line ran a PBFT campaign with seed 1; now anything left over
// exits 2 and is named, for the campaign and each subcommand alike.
func TestStrayArgumentsRefused(t *testing.T) {
	bin := buildAvd(t)
	for _, args := range [][]string{
		{"-tests", "3", "-measure", "100ms", "-quiet", "oops", "-seed", "9", "-target", "raft"},
		{"-tests", "3", "-measure", "100ms", "fig2"},
		{"fig2", "-tests", "2", "-measure", "100ms", "oops", "-seed", "9"},
		{"bigmac", "-clients", "20", "-measure", "100ms", "oops"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("avd %s: %v, want exit status 2:\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if stray := args[len(args)-1]; !strings.Contains(string(out), "unexpected arguments: ") || !strings.Contains(string(out), stray) {
			t.Errorf("avd %s does not name the leftover arguments:\n%s", strings.Join(args, " "), out)
		}
	}
}

// TestOutOfRangeFlagsRefused: power -seeds 0 printed NaN and 0/0 for every
// level and exited 0, and fig3 with -maskmax at or below -maskmin failed
// deep in the engine; each is now refused up front, naming its flags.
func TestOutOfRangeFlagsRefused(t *testing.T) {
	bin := buildAvd(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"power", "-seeds", "0", "-budget", "2", "-measure", "100ms"}, []string{"-seeds"}},
		{[]string{"power", "-budget", "0", "-seeds", "1", "-measure", "100ms"}, []string{"-budget"}},
		{[]string{"power", "-budget", "-3", "-seeds", "1", "-measure", "100ms"}, []string{"-budget"}},
		{[]string{"fig3", "-maskmin", "8", "-maskmax", "8", "-measure", "100ms"}, []string{"-maskmax", "-maskmin"}},
		{[]string{"fig3", "-maskmin", "8", "-maskmax", "4", "-measure", "100ms"}, []string{"-maskmax", "-maskmin"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("avd %s exited 0:\n%s", strings.Join(tc.args, " "), out)
			continue
		}
		for _, flag := range tc.want {
			if !strings.Contains(string(out), flag) {
				t.Errorf("avd %s does not name %s:\n%s", strings.Join(tc.args, " "), flag, out)
			}
		}
	}
}
