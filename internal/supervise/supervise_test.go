package supervise

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// script builds a Command factory running a shell snippet; $1 is the
// shard index.
func script(body string) func(int) *exec.Cmd {
	return func(shard int) *exec.Cmd {
		return exec.Command("/bin/sh", "-c", body, "worker", fmt.Sprint(shard))
	}
}

// TestSupervisorCompletes: healthy workers run once and the fleet
// reports done.
func TestSupervisorCompletes(t *testing.T) {
	s, err := New(Config{Shards: 3, Command: script("exit 0"), Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Done || r.Starts != 1 {
			t.Fatalf("shard %d: %+v", r.Shard, r)
		}
	}
}

// TestSupervisorRestartsUntilSuccess: a worker that crashes twice and
// then succeeds is restarted with backoff and ends done.
func TestSupervisorRestartsUntilSuccess(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`f=%s/count-$1; n=$(cat $f 2>/dev/null || echo 0); n=$((n+1)); echo $n > $f; [ $n -ge 3 ]`, dir)
	s, err := New(Config{
		Shards:     2,
		Command:    script(body),
		Retries:    5,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Done || r.Starts != 3 {
			t.Fatalf("shard %d: want done after 3 starts, got %+v", r.Shard, r)
		}
	}
}

// TestSupervisorRetryCapDegradesGracefully: a shard that keeps crashing
// is marked failed after its retries while the healthy shard completes
// — the campaign degrades instead of wedging.
func TestSupervisorRetryCapDegradesGracefully(t *testing.T) {
	s, err := New(Config{
		Shards:     2,
		Command:    script(`[ "$1" = "0" ]`), // shard 0 exits 0, shard 1 exits 1
		Retries:    2,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err == nil {
		t.Fatal("a failed shard must surface in Run's error")
	}
	if !reports[0].Done {
		t.Fatalf("healthy shard 0 must complete: %+v", reports[0])
	}
	r := reports[1]
	if !r.Failed || r.Done || r.Starts != 3 {
		t.Fatalf("shard 1: want failed after 1+2 starts, got %+v", r)
	}
	if !strings.Contains(r.Err, "exit code 1") {
		t.Fatalf("shard 1 error not actionable: %q", r.Err)
	}
}

// TestSupervisorKillsHungWorker: a worker whose heartbeat never moves
// is killed by the watchdog and counted as a crash.
func TestSupervisorKillsHungWorker(t *testing.T) {
	dir := t.TempDir()
	hb := func(shard int) string { return filepath.Join(dir, fmt.Sprintf("hb-%d", shard)) }
	s, err := New(Config{
		Shards:     1,
		Command:    script("while :; do sleep 0.05; done"),
		Heartbeat:  hb,
		HungAfter:  300 * time.Millisecond,
		Retries:    0,
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err == nil {
		t.Fatal("hung shard must surface in Run's error")
	}
	r := reports[0]
	if !r.Failed || r.HungKills != 1 {
		t.Fatalf("want 1 hung kill then failure, got %+v", r)
	}
	if !strings.Contains(r.Err, "heartbeat") {
		t.Fatalf("hang error not actionable: %q", r.Err)
	}
}

// TestSupervisorHeartbeatKeepsWorkerAlive: a slow worker whose
// heartbeat does move is left alone.
func TestSupervisorHeartbeatKeepsWorkerAlive(t *testing.T) {
	dir := t.TempDir()
	hb := filepath.Join(dir, "hb-0")
	body := fmt.Sprintf(`for i in 1 2 3 4 5 6; do echo $i > %s; sleep 0.1; done`, hb)
	s, err := New(Config{
		Shards:    1,
		Command:   script(body),
		Heartbeat: func(int) string { return hb },
		HungAfter: 250 * time.Millisecond,
		Retries:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Done || reports[0].HungKills != 0 {
		t.Fatalf("heartbeating worker was disturbed: %+v", reports[0])
	}
}

// TestSupervisorDrain: canceling the context SIGTERMs workers; one that
// exits with the drained code is reported drained, not crashed.
func TestSupervisorDrain(t *testing.T) {
	dir := t.TempDir()
	ready := filepath.Join(dir, "ready")
	body := fmt.Sprintf(`trap 'exit 3' TERM; : > %s; while :; do sleep 0.05; done`, ready)
	s, err := New(Config{
		Shards:       1,
		Command:      script(body),
		Retries:      3,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if _, err := os.Stat(ready); err == nil {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	defer cancel()
	reports, err := s.Run(ctx)
	if err == nil {
		t.Fatal("a drained fleet is incomplete; Run must say so")
	}
	r := reports[0]
	if !r.Drained || r.Done || r.Failed || r.Starts != 1 {
		t.Fatalf("want drained on first start, got %+v", r)
	}
}

// TestSupervisorKillHook: the chaos hook kills a running worker and the
// supervisor restarts it like any crash.
func TestSupervisorKillHook(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`f=%s/count; n=$(cat $f 2>/dev/null || echo 0); n=$((n+1)); echo $n > $f; [ $n -ge 2 ] && exit 0; while :; do sleep 0.05; done`, dir)
	s, err := New(Config{
		Shards:     1,
		Command:    script(body),
		Retries:    3,
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Kill only once the first worker has recorded its start: a kill
		// that lands before the shell wrote the count leaves the restart
		// at count 1, looping forever with nobody left to kill it (seen
		// under -race on a loaded machine).
		for {
			if b, _ := os.ReadFile(filepath.Join(dir, "count")); len(b) > 0 && s.Kill(0) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	reports, err := s.Run(context.Background())
	<-done
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	if !r.Done || r.Starts != 2 {
		t.Fatalf("want done on the restart after the chaos kill, got %+v", r)
	}
}
