package main

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestGuardKillsOverlongChild(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	e := &env{}
	start := time.Now()
	run := e.runChild(sleep, []string{"30"}, 200*time.Millisecond)
	if run.killed == "" || run.err == nil || !strings.Contains(run.err.Error(), "guard killed") {
		t.Errorf("killed=%q err=%v, want the guard's verdict", run.killed, run.err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the guard took %v to end a child limited to 200 ms", took)
	}
	if e.child.Load() != 0 {
		t.Error("child group still published after the run")
	}
}

func TestChildOutputAndUsage(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh binary")
	}
	e := &env{}
	run := e.runChild(sh, []string{"-c", "echo one; echo two; echo oops >&2"}, time.Minute)
	if run.err != nil || run.killed != "" {
		t.Fatalf("err=%v killed=%q", run.err, run.killed)
	}
	if len(run.stdout) != 2 || run.stdout[0].text != "one" || run.stdout[1].text != "two" || run.stdout[1].at < run.stdout[0].at {
		t.Errorf("stdout = %+v", run.stdout)
	}
	if strings.TrimSpace(run.stderr) != "oops" || run.maxRSSKB <= 0 || run.wall <= 0 {
		t.Errorf("stderr=%q maxRSS=%d wall=%v", run.stderr, run.maxRSSKB, run.wall)
	}
	if failing := e.runChild(sh, []string{"-c", "exit 3"}, time.Minute); failing.err == nil {
		t.Error("a non-zero exit must be an error")
	}
}
