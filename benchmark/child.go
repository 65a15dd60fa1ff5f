package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rssLimitBytes is the guard's per-process memory ceiling: the largest
// workload peaks near 1.4 GB, and the one runaway seen while sizing
// (raft + -faults crash) passed 7 GB within seconds.
const rssLimitBytes = 4 << 30

// guardPoll is how often the guard looks at the child's process group.
const guardPoll = 50 * time.Millisecond

// stampedLine is one stdout line and when it arrived, relative to exec.
type stampedLine struct {
	at   time.Duration
	text string
}

// childRun is what one child process cost and said.
type childRun struct {
	wall     time.Duration
	user     time.Duration // user CPU, the child and its waited-for descendants
	sys      time.Duration
	maxRSSKB int64 // max RSS of any one process in the child's tree
	minFlt   int64
	stdout   []stampedLine
	stderr   string
	// killed names the guard limit the child broke ("" = it ran free).
	killed string
	err    error // non-zero exit, start failure, or the guard's verdict
}

// runChild runs bin as a closed-loop child in its own process group,
// watched by the guard: a process of the group whose RSS passes
// rssLimitBytes, or a child still running after wallLimit, gets the whole
// group SIGKILLed and the run reported as failed. The group id is published in e.child so an interrupted harness can take
// the child down with it.
func (e *env) runChild(bin string, args []string, wallLimit time.Duration) childRun {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{err: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{err: err}
	}
	pgid := cmd.Process.Pid
	e.child.Store(int64(pgid))
	defer e.child.Store(0)

	var run childRun
	lines := make(chan []stampedLine, 1)
	go func() {
		var got []stampedLine
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			got = append(got, stampedLine{at: time.Since(start), text: sc.Text()})
		}
		// A scanner that gave up (overlong line) must not leave the child
		// blocked on a full pipe.
		io.Copy(io.Discard, pipe)
		lines <- got
	}()

	done := make(chan struct{})
	verdict := make(chan string, 1)
	go func() {
		t := time.NewTicker(guardPoll)
		defer t.Stop()
		for {
			select {
			case <-done:
				verdict <- ""
				return
			case <-t.C:
				since := time.Since(start)
				why := ""
				if since > wallLimit {
					why = fmt.Sprintf("wall %v passed the %v limit", since.Round(time.Millisecond), wallLimit.Round(time.Millisecond))
				} else if rss := groupMaxRSS(pgid); rss > rssLimitBytes {
					why = fmt.Sprintf("RSS %d MB passed the %d MB limit", rss>>20, int64(rssLimitBytes)>>20)
				}
				if why != "" {
					syscall.Kill(-pgid, syscall.SIGKILL)
					<-done
					verdict <- why
					return
				}
			}
		}
	}()

	// Stdout must drain before Wait closes the pipe.
	run.stdout = <-lines
	werr := cmd.Wait()
	run.wall = time.Since(start)
	close(done)
	run.killed = <-verdict
	// A supervisor killed mid-flight can leave workers behind; the group
	// dies with it.
	syscall.Kill(-pgid, syscall.SIGKILL)

	run.stderr = stderr.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.user = time.Duration(ru.Utime.Nano())
		run.sys = time.Duration(ru.Stime.Nano())
		run.maxRSSKB = ru.Maxrss
		run.minFlt = ru.Minflt
	}
	switch {
	case run.killed != "":
		run.err = fmt.Errorf("guard killed %s: %s", filepath.Base(bin), run.killed)
	case werr != nil:
		run.err = fmt.Errorf("%s: %w\n%s", filepath.Base(bin), werr, tail(run.stderr, 2000))
	}
	return run
}

// groupMaxRSS is the largest resident set among the live processes of a
// process group, from /proc.
func groupMaxRSS(pgid int) int64 {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	page := int64(os.Getpagesize())
	var most int64
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// pid (comm) state ppid pgrp ...; comm may hold spaces, so split
		// after the closing parenthesis.
		rest := stat[bytes.LastIndexByte(stat, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 3 {
			continue
		}
		if g, _ := strconv.Atoi(f[2]); g != pgid && pid != pgid {
			continue
		}
		statm, err := os.ReadFile("/proc/" + e.Name() + "/statm")
		if err != nil {
			continue
		}
		sf := strings.Fields(string(statm))
		if len(sf) < 2 {
			continue
		}
		pages, _ := strconv.ParseInt(sf[1], 10, 64)
		most = max(most, pages*page)
	}
	return most
}

// tail is the last n bytes of s, for error messages.
func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}
