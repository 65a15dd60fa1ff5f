package main

import (
	"encoding/json"
	"os"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
)

// A span is one timed call across a layer boundary. Times are
// nanoseconds since the trace began; Parent is the ID of the span that
// was open when this one started (0 = the root has none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. All of a campaign's spans share one
// trace id. It is not safe for concurrent use: every workload runs its
// campaign with one worker, which the engine executes inline on the
// calling goroutine, so "the span open right now" is the parent. A nil
// *tracer records nothing: the untraced comparison run passes nil through
// the same code, and leaves the decorators off altogether.
type tracer struct {
	id    string
	epoch time.Time
	spans []span
	open  []int // stack of span IDs
}

func newTracer(id string) *tracer {
	return &tracer{id: id, epoch: time.Now()}
}

// start opens a span under the current one and returns its ID.
func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	id := t.start(name)
	fn()
	t.end(id)
}

// write dumps the trace as JSON; called once, when the run ends.
func (t *tracer) write(path, workload string) error {
	data, err := json.Marshal(struct {
		TraceID  string `json:"trace_id"`
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.id, workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durationsMS returns the wall of every span called name, in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// totalSeconds sums the wall of every span called name.
func totalSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// selfSeconds sums, over every span called name, its duration minus the
// part its direct children cover. Children of one parent never overlap
// here (one goroutine), so that part is the sum of their durations.
func selfSeconds(spans []span, name string) float64 {
	child := make(map[int]int64) // parent ID -> ns covered by children
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start - child[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// tracedTarget decorates a core.Target with a span per call. It forwards
// every capability the engine detects by type assertion, so wrapping
// changes which path the engine takes for no target: both shipped targets
// implement all of them.
type tracedTarget struct {
	inner harnessTarget
	tr    *tracer
}

var (
	_ core.Target            = (*tracedTarget)(nil)
	_ core.WorkerSnapshotter = (*tracedTarget)(nil)
	_ core.Preparer          = (*tracedTarget)(nil)
	_ core.Warmer            = (*tracedTarget)(nil)
)

func (t *tracedTarget) Name() string           { return t.inner.Name() }
func (t *tracedTarget) Plugins() []core.Plugin { return t.inner.Plugins() }

func (t *tracedTarget) Run(sc scenario.Scenario) core.Result {
	defer t.tr.end(t.tr.start("harness.test"))
	return t.inner.Run(sc)
}

func (t *tracedTarget) RunFork(sc scenario.Scenario) core.Result {
	defer t.tr.end(t.tr.start("harness.test"))
	return t.inner.RunFork(sc)
}

func (t *tracedTarget) RunForkWorker(sc scenario.Scenario, worker int) core.Result {
	defer t.tr.end(t.tr.start("harness.test"))
	return t.inner.RunForkWorker(sc, worker)
}

func (t *tracedTarget) Prepare(sc scenario.Scenario) {
	defer t.tr.end(t.tr.start("harness.prepare"))
	t.inner.Prepare(sc)
}

func (t *tracedTarget) Warm(batch []scenario.Scenario) {
	defer t.tr.end(t.tr.start("harness.prepare"))
	t.inner.Warm(batch)
}

// tracedExplorer decorates a core.Explorer with a span per call.
type tracedExplorer struct {
	inner core.Explorer
	tr    *tracer
}

func (x *tracedExplorer) Next() (scenario.Scenario, string, bool) {
	defer x.tr.end(x.tr.start("core.explorer.next"))
	return x.inner.Next()
}

func (x *tracedExplorer) Record(res core.Result) {
	defer x.tr.end(x.tr.start("core.explorer.record"))
	x.inner.Record(res)
}
