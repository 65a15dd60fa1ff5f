// Package supervise keeps a fleet of campaign worker processes alive
// until their shards complete (DESIGN.md §8). It is the repo's own
// dose of the paper's medicine: the campaign infrastructure assumes its
// workers crash — SIGKILL, OOM, power loss — and turns each crash into
// a restart-and-resume instead of a lost run. The supervisor watches
// exit codes and heartbeat files, restarts crashed or hung workers with
// exponential backoff up to a retry cap, degrades gracefully when a
// shard exhausts its retries (the campaign completes on the survivors
// and says so), and drains the fleet — SIGTERM to every worker, final
// checkpoints flushed — when its own context is canceled.
//
// The package is deliberately wall-clock-bound (timeouts, backoff,
// heartbeats) and therefore lives outside the deterministic-package
// audit: determinism belongs to the workers, liveness to the
// supervisor.
package supervise

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ExitDrained is the exit code a worker uses for "interrupted but
// checkpoint flushed" (cmd/avd exits with it on SIGINT/SIGTERM). During
// a supervisor-initiated drain it means success-so-far; any other time
// it counts as a crash.
const ExitDrained = 3

// ExitRefused is the exit code a worker uses for "state refused": its
// manifest does not match the flags, or its checkpoint is not one this
// build resumes. A restart would meet the same files and refuse them
// again, so the supervisor marks the shard failed on the first such exit,
// without backoff. I/O errors exit 1 and are retried.
const ExitRefused = 4

// Config shapes a Supervisor.
type Config struct {
	// Shards is the fleet size; shard indices are 0..Shards-1.
	Shards int
	// Command builds the (unstarted) worker command for one shard. It is
	// called for every launch, including restarts.
	Command func(shard int) *exec.Cmd
	// Heartbeat names the file shard k touches as it makes progress; ""
	// disables hang detection for the fleet.
	Heartbeat func(shard int) string
	// HungAfter kills a worker whose heartbeat has not moved for this
	// long (0 disables). The kill counts as a crash: restart + backoff.
	HungAfter time.Duration
	// Retries caps restarts per shard; a shard crashing Retries+1 times
	// is marked failed and the campaign completes on the survivors.
	Retries int
	// BackoffMin/BackoffMax bound the exponential restart backoff
	// (defaults 250ms / 10s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DrainTimeout bounds the graceful-drain window: a worker that
	// ignores SIGTERM for this long is SIGKILLed (default 30s).
	DrainTimeout time.Duration
	// Log receives supervision events (launches, crashes, backoff,
	// failures); nil discards them.
	Log io.Writer
}

// Report is one shard's supervision outcome.
type Report struct {
	Shard int
	// Starts counts launches (1 for an undisturbed shard).
	Starts int
	// HungKills counts watchdog kills for stalled heartbeats.
	HungKills int
	// Done means the shard completed its budget (worker exited 0).
	Done bool
	// Drained means the shard was interrupted by the supervisor's own
	// shutdown after flushing its checkpoint (worker exited 3).
	Drained bool
	// Failed means the shard exhausted its retries; Err explains the
	// last crash.
	Failed bool
	Err    string
}

// Supervisor runs one fleet. Use New, then Run once.
type Supervisor struct {
	cfg Config

	mu    sync.Mutex
	procs map[int]*os.Process // currently running worker per shard
}

// New validates the config and builds a Supervisor.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("supervise: %d shards", cfg.Shards)
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("supervise: Config.Command is required")
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	return &Supervisor{cfg: cfg, procs: make(map[int]*os.Process)}, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "avdd: "+format+"\n", args...)
	}
}

// Kill SIGKILLs shard k's running worker, if any — the chaos hook the
// kill-storm test and cmd/avdd's -storm flag use. The supervisor treats
// the death like any other crash: restart, backoff, retry cap.
func (s *Supervisor) Kill(shard int) bool {
	s.mu.Lock()
	p := s.procs[shard]
	s.mu.Unlock()
	if p == nil {
		return false
	}
	return p.Kill() == nil
}

// Run supervises the fleet until every shard is done, failed, or the
// context is canceled (which drains the fleet gracefully). The returned
// error is non-nil when any shard failed or was left undone by a drain;
// the per-shard reports say which.
func (s *Supervisor) Run(ctx context.Context) ([]Report, error) {
	reports := make([]Report, s.cfg.Shards)
	var wg sync.WaitGroup
	for k := 0; k < s.cfg.Shards; k++ {
		reports[k].Shard = k
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.runShard(ctx, k, &reports[k])
		}(k)
	}
	wg.Wait()

	incomplete := 0
	for _, r := range reports {
		if !r.Done {
			incomplete++
		}
	}
	if incomplete > 0 {
		return reports, fmt.Errorf("supervise: %d of %d shards incomplete", incomplete, s.cfg.Shards)
	}
	return reports, nil
}

// runShard is one shard's restart loop.
func (s *Supervisor) runShard(ctx context.Context, k int, rep *Report) {
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return
		}
		rep.Starts++
		code, hung, err := s.runOnce(ctx, k, rep)
		switch {
		case code == 0:
			rep.Done = true
			s.logf("shard %d done (%d starts)", k, rep.Starts)
			return
		case ctx.Err() != nil && (code == ExitDrained || err == nil):
			// Our own drain interrupted it; its checkpoint is flushed.
			rep.Drained = true
			s.logf("shard %d drained", k)
			return
		}
		if hung {
			rep.HungKills++
			rep.Err = fmt.Sprintf("hung: no heartbeat progress for %v", s.cfg.HungAfter)
		} else if err != nil {
			rep.Err = err.Error()
		} else if code == ExitRefused {
			rep.Err = fmt.Sprintf("exit code %d: state refused, not retried", code)
		} else {
			rep.Err = fmt.Sprintf("exit code %d", code)
		}
		if attempt >= s.cfg.Retries || code == ExitRefused {
			rep.Failed = true
			s.logf("shard %d FAILED after %d starts: %s", k, rep.Starts, rep.Err)
			return
		}
		backoff := s.cfg.BackoffMin << attempt
		if backoff > s.cfg.BackoffMax || backoff <= 0 {
			backoff = s.cfg.BackoffMax
		}
		s.logf("shard %d crashed (%s); restart %d/%d in %v", k, rep.Err, attempt+1, s.cfg.Retries, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
	}
}

// runOnce launches shard k's worker and waits it out, enforcing the
// heartbeat watchdog and the graceful drain. It returns the exit code
// (-1 when signaled), whether the watchdog killed it, and any launch
// error.
func (s *Supervisor) runOnce(ctx context.Context, k int, rep *Report) (code int, hung bool, err error) {
	cmd := s.cfg.Command(k)
	if err := cmd.Start(); err != nil {
		return -1, false, fmt.Errorf("start: %w", err)
	}
	s.mu.Lock()
	s.procs[k] = cmd.Process
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.procs, k)
		s.mu.Unlock()
	}()
	s.logf("shard %d started (pid %d, attempt %d)", k, cmd.Process.Pid, rep.Starts)

	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()

	var hb string
	if s.cfg.Heartbeat != nil {
		hb = s.cfg.Heartbeat(k)
	}
	var lastBeat time.Time
	watchdog := time.NewTicker(watchInterval(s.cfg.HungAfter))
	defer watchdog.Stop()
	started := time.Now()

	killedHung := false
	draining := false
	var drainDeadline <-chan time.Time
	for {
		select {
		case werr := <-waitc:
			return exitCode(cmd, werr), killedHung, nil
		case <-ctx.Done():
			if !draining {
				draining = true
				// Graceful drain: the worker finishes its in-flight batch,
				// flushes a final checkpoint and exits 3.
				cmd.Process.Signal(syscall.SIGTERM)
				drainDeadline = time.After(s.cfg.DrainTimeout)
			}
		case <-drainDeadline:
			cmd.Process.Kill()
		case <-watchdog.C:
			if draining || hb == "" || s.cfg.HungAfter <= 0 {
				continue
			}
			st, serr := os.Stat(hb)
			switch {
			case serr == nil && st.ModTime().After(lastBeat):
				lastBeat = st.ModTime()
			case lastBeat.IsZero() && time.Since(started) < s.cfg.HungAfter:
				// Grace period before the first heartbeat.
			case time.Since(maxTime(lastBeat, started)) >= s.cfg.HungAfter:
				killedHung = true
				cmd.Process.Kill()
			}
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// watchInterval polls the heartbeat a few times per hang window.
func watchInterval(hungAfter time.Duration) time.Duration {
	if hungAfter <= 0 {
		return time.Second
	}
	iv := hungAfter / 4
	if iv < 50*time.Millisecond {
		iv = 50 * time.Millisecond
	}
	return iv
}

// exitCode extracts a process's exit code (-1 for signals).
func exitCode(cmd *exec.Cmd, werr error) int {
	if werr == nil {
		return 0
	}
	if ee, ok := werr.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return -1
		}
		return ee.ExitCode()
	}
	return -1
}
