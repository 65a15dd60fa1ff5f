package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
)

// env is where one harness process builds and runs: the avd module's
// root, the build outputs under <root>/.bench_build, and a private work
// dir there that is removed on every exit path.
type env struct {
	out  string // <root>/.bench_build: survives runs; holds the binaries and span files
	work string // <out>/run-<pid>: this run's csv files and state dirs
	avd  string
	avdd string
	// child is the process group of the child now running (0 = none).
	child atomic.Int64
}

// findRoot walks up from dir to the directory holding the avd module.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(first) == "module avd" {
				return d, nil
			}
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no avd module (go.mod with \"module avd\") at or above %s", dir)
		}
	}
}

// newEnv finds the checkout from the working directory, prepares the
// work dir and builds avd and avdd from source into <out>/bin — kept
// between runs like the Go build cache beside it, so only the first run
// in a checkout links them. The build runs from benchmark/ (whose go.mod
// replaces avd with the checkout), so the binaries are exactly what
// `go build ./cmd/avd ./cmd/avdd` at the root produces.
func newEnv() (*env, error) {
	root, err := findRoot(".")
	if err != nil {
		return nil, err
	}
	e := &env{out: filepath.Join(root, ".bench_build")}
	bin := filepath.Join(e.out, "bin")
	e.work = filepath.Join(e.out, fmt.Sprintf("run-%d", os.Getpid()))
	for _, dir := range []string{bin, e.work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e.avd, e.avdd = filepath.Join(bin, "avd"), filepath.Join(bin, "avdd")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "avd/cmd/avd", "avd/cmd/avdd")
	cmd.Dir = filepath.Join(root, "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build avd/cmd/avd avd/cmd/avdd: %w\n%s", err, out)
	}
	return e, nil
}

// close kills a child still running (the interrupt path) and removes this
// run's csv files and state dirs.
func (e *env) close() {
	if pgid := e.child.Load(); pgid > 0 {
		syscall.Kill(-int(pgid), syscall.SIGKILL)
	}
	os.RemoveAll(e.work)
}

// path names a file in the work dir.
func (e *env) path(name string) string { return filepath.Join(e.work, name) }
