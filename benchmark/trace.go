package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/trace"
)

// Span names. A span wraps one call from the benchmark's files into a
// layer's public function; the layer is the prefix.
const (
	spanCampaign  = "campaign"            // root: everything one avd/avdd invocation does
	spanBuild     = "campaign.build"      // campaign.Build
	spanManifest  = "core.manifest"       // LoadManifest + WriteManifest
	spanOpen      = "core.durable.open"   // OpenDurable
	spanRunAll    = "core.engine.run_all" // Engine.RunAll
	spanAppend    = "core.durable.append" // DurableCheckpoint.Append (the engine's sink)
	spanHeartbeat = "avd.heartbeat"       // the worker's per-test liveness write
	spanClose     = "core.durable.close"  // DurableCheckpoint.Close
	spanRecover   = "core.durable.recover"
	spanMerge     = "core.shard.merge"
	spanSummarize = "trace.summarize"
	spanCSV       = "trace.csv"
)

// shardRun is one avd process's campaign, run in-process.
type shardRun struct {
	results      []core.Result
	wall         time.Duration // Build through Close
	phases       core.PhaseBreakdown
	appends      int
	journalBytes int64
}

// runShard mirrors cmd/avd's main for w.cfg with shard k: Build, the
// engine with the explorer it built, and — when state names a directory —
// the manifest, the durable checkpoint as checkpoint + sink, and the
// per-test heartbeat write. With a tracer every layer call gets a span,
// through decorators over the public interfaces; with nil the campaign
// runs bare, which is the untraced side of trace.overhead_share.
func runShard(w workload, k int, state string, tr *tracer) (shardRun, error) {
	var run shardRun
	start := time.Now()
	cfg := w.cfg
	cfg.Shard = k

	var setup *campaign.Setup
	var err error
	tr.do(spanBuild, func() { setup, err = campaign.Build(cfg) })
	if err != nil {
		return run, err
	}
	inner, ok := setup.Target.(harnessTarget)
	if !ok {
		return run, fmt.Errorf("target %s is not a full harness (fork, prepare, warm, phases, flush)", setup.Target.Name())
	}
	defer inner.FlushMasters()
	target, explorer := core.Target(inner), setup.Explorer
	if tr != nil {
		target, explorer = &tracedTarget{inner: inner, tr: tr}, &tracedExplorer{inner: setup.Explorer, tr: tr}
	}
	opts := []core.EngineOption{
		core.WithExplorer(explorer),
		core.WithBudget(cfg.Tests),
		core.WithWorkers(cfg.Workers),
	}

	var durable *core.DurableCheckpoint
	if state != "" {
		if err := os.MkdirAll(state, 0o755); err != nil {
			return run, err
		}
		paths := campaign.PathsFor(state, k, cfg.Shards)
		tr.do(spanManifest, func() {
			if _, err = core.LoadManifest(paths.Manifest); errors.Is(err, os.ErrNotExist) {
				err = core.WriteManifest(paths.Manifest, setup.Manifest)
			}
		})
		if err != nil {
			return run, err
		}
		tr.do(spanOpen, func() { durable, _, err = core.OpenDurable(paths.Checkpoint, setup.Space) })
		if err != nil {
			return run, err
		}
		opts = append(opts,
			core.WithCheckpoint(durable.Checkpoint()),
			core.WithCheckpointSink(func(batch []core.Result) error {
				defer tr.end(tr.start(spanAppend))
				run.appends++
				return durable.Append(batch)
			}),
			core.WithObserver(func(i int, _ core.Result) {
				defer tr.end(tr.start(spanHeartbeat))
				os.WriteFile(paths.Heartbeat, []byte(fmt.Sprintf("%d\n", i)), 0o644)
			}))
	}

	eng, err := core.NewEngine(target, opts...)
	if err != nil {
		return run, err
	}
	tr.do(spanRunAll, func() { run.results, err = eng.RunAll(context.Background()) })
	if err != nil {
		return run, err
	}
	if durable != nil {
		if st, serr := os.Stat(durable.Path() + ".journal"); serr == nil {
			run.journalBytes = st.Size()
		}
		tr.do(spanClose, func() { err = durable.Close() })
		if err != nil {
			return run, err
		}
	}
	run.wall = time.Since(start)
	run.phases = inner.Phases()
	return run, nil
}

// inProcess is a whole workload run in the harness process.
type inProcess struct {
	shards  []shardRun
	results []core.Result // what the csv holds: the campaign's, or the merged shards'
	csv     []byte
	wall    time.Duration
}

// runInProcess mirrors one repetition of the workload inside the harness:
// cmd/avd's campaign, summary and csv for a serial workload; for a
// sharded one each worker's durable campaign in turn, then cmd/avdd's
// recover, merge, fingerprint, summary and csv.
func (e *env) runInProcess(w workload, tr *tracer) (inProcess, error) {
	var out inProcess
	start := time.Now()
	root := tr.start(spanCampaign)
	defer tr.end(root)

	var summary bytes.Buffer
	var csv bytes.Buffer
	report := func(results []core.Result) error {
		tr.do(spanSummarize, func() { trace.SummarizeCampaign(&summary, w.cfg.Strategy, results) })
		var err error
		tr.do(spanCSV, func() { err = trace.WriteCampaignCSV(&csv, w.cfg.Strategy, results) })
		return err
	}

	if !w.sharded {
		run, err := runShard(w, 0, "", tr)
		if err != nil {
			return out, err
		}
		out.shards, out.results = []shardRun{run}, run.results
		if err := report(run.results); err != nil {
			return out, err
		}
	} else {
		state := e.path("state-inprocess")
		os.RemoveAll(state)
		defer os.RemoveAll(state)
		for k := 0; k < w.cfg.Shards; k++ {
			run, err := runShard(w, k, state, tr)
			if err != nil {
				return out, err
			}
			// Each worker prints its own summary before it exits.
			tr.do(spanSummarize, func() { trace.SummarizeCampaign(&summary, w.cfg.Strategy, run.results) })
			out.shards = append(out.shards, run)
			freeHeap() // the next worker is a fresh process
		}
		// The supervisor's side: derive the plan, read every shard back,
		// merge with exactly-once accounting.
		var setup *campaign.Setup
		var err error
		tr.do(spanBuild, func() { setup, err = campaign.Build(w.cfg) })
		if err != nil {
			return out, err
		}
		perShard := make([][]core.Result, w.cfg.Shards)
		for k := range perShard {
			sub, err := setup.Plan.Subspace(setup.FullSpace, k)
			if err != nil {
				return out, err
			}
			tr.do(spanRecover, func() {
				perShard[k], _, err = core.ReadDurableResults(campaign.PathsFor(state, k, w.cfg.Shards).Checkpoint, sub)
			})
			if err != nil {
				return out, err
			}
		}
		tr.do(spanMerge, func() { out.results, err = core.MergeShards(setup.FullSpace, setup.Plan, perShard) })
		if err != nil {
			return out, err
		}
		if err := report(out.results); err != nil {
			return out, err
		}
	}
	out.csv = csv.Bytes()
	out.wall = time.Since(start)
	return out, nil
}

// freeHeap returns the heap to the state a fresh process starts from, as
// far as a running one can: garbage collected and idle pages handed back,
// so the next in-process campaign page-faults its heap in like a child.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// minOverheadPairs is the least number of (traced, untraced) in-process
// campaign pairs a trace run makes; it makes as many more as -seconds
// leaves room for. trace.overhead_share compares the fastest of each side.
const minOverheadPairs = 2

// probeSeconds is the room a trace run leaves for the layer probes.
const probeSeconds = 2

// firstFile polls until one of paths exists and reports when, relative to
// start; it gives up when stop closes.
func firstFile(paths []string, start time.Time, stop <-chan struct{}) <-chan time.Duration {
	found := make(chan time.Duration, 1)
	go func() {
		defer close(found)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, p := range paths {
					if _, err := os.Stat(p); err == nil {
						found <- time.Since(start)
						return
					}
				}
			}
		}
	}()
	return found
}

// tracedRun produces the per-layer metrics: one end-to-end repetition
// through the binaries after a discarded warm-up one (process-level
// costs, supervision seen from outside, and the csv everything else must
// equal), the in-process campaign traced and untraced, and the layer
// probes, all within about `seconds`. CLI == in-process is asserted:
// every in-process csv must equal the child's.
func (e *env) tracedRun(w workload, seconds float64, logf func(string, ...any)) (map[string]float64, outcome) {
	var out outcome
	start := time.Now()
	fail := func(format string, args ...any) (map[string]float64, outcome) {
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
		return nil, out
	}
	m := make(map[string]float64)

	// 1. Through the binaries, watched from outside — after a discarded
	// warm-up child, as in an end-to-end run: the first exec after a build
	// pays page-cache costs no later one does.
	warm := e.campaignRepetition(w, warmupWallLimit)
	out.add(w, warm)
	if warm.err != nil {
		return nil, out
	}
	stop := make(chan struct{})
	var heartbeats []string
	for k := 0; k < w.cfg.Shards; k++ {
		heartbeats = append(heartbeats, campaign.PathsFor(e.path("state"), k, w.cfg.Shards).Heartbeat)
	}
	os.RemoveAll(e.path("state"))
	spawned := firstFile(heartbeats, time.Now(), stop)
	cli := e.campaignRepetition(w, 10*warm.run.wall)
	close(stop)
	if cli.err == nil {
		if diff := sameOutput(warm, cli); diff != "" {
			cli.failed, cli.err = w.tests(), fmt.Errorf("cli repetition: %s", diff)
		}
	}
	out.add(w, cli)
	if cli.err != nil {
		return nil, out
	}
	logf("cli repetition: %.2f s", cli.run.wall.Seconds())
	if err := processMetrics(m, w, cli, spawned); err != nil {
		return fail("%v", err)
	}

	// 2. In-process, on a heap as cold as the child's: the traced campaign
	// and the same campaign with no tracer and no decorators, alternating.
	// The fastest run of each side is kept — the work is identical, so
	// noise only adds — and the traced one's spans are the per-layer data.
	var traced, bare inProcess
	var tr *tracer
	mirror := func(t *tracer) (inProcess, error) {
		freeHeap()
		run, err := e.runInProcess(w, t)
		if err != nil {
			return run, err
		}
		out.attempted += w.tests()
		if len(run.results) != w.tests() || !bytes.Equal(run.csv, cli.csv) {
			out.failed += w.tests()
			out.problems = append(out.problems, fmt.Sprintf("in-process campaign's csv (%d results, %d bytes) differs from the cli's (%d bytes)", len(run.results), len(run.csv), len(cli.csv)))
		}
		return run, nil
	}
	for pair := 0; pair < minOverheadPairs || (time.Since(start)+traced.wall+bare.wall).Seconds() <= seconds-probeSeconds; pair++ {
		t := newTracer(fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), pair))
		withSpans, err := mirror(t)
		if err != nil {
			return fail("traced in-process campaign: %v", err)
		}
		without, err := mirror(nil)
		if err != nil {
			return fail("untraced in-process campaign: %v", err)
		}
		logf("in-process campaign %d: traced %.2f s (%d spans), untraced %.2f s", pair+1, withSpans.wall.Seconds(), len(t.spans), without.wall.Seconds())
		if pair == 0 || withSpans.wall < traced.wall {
			traced, tr = withSpans, t
		}
		if pair == 0 || without.wall < bare.wall {
			bare = without
		}
	}
	if len(out.problems) > 0 {
		return nil, out
	}
	spanPath := filepath.Join(e.out, "trace-"+w.name+".json")
	if err := tr.write(spanPath, w.name); err != nil {
		return fail("writing spans: %v", err)
	}
	logf("spans -> %s", spanPath)
	m["trace.overhead_share"] = (traced.wall - bare.wall).Seconds() / bare.wall.Seconds()
	spanMetrics(m, w, traced, tr.spans)

	// 3. Layer probes.
	freeHeap()
	probeStart := time.Now()
	probes, err := layerProbes()
	if err != nil {
		return fail("layer probes: %v", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	logf("layer probes: %.2f s", time.Since(probeStart).Seconds())
	return m, out
}

// processMetrics fills in what one end-to-end child shows from outside:
// its rusage, and for a sharded run the supervisor's timeline — first
// heartbeat, each worker's checkpoint close, avdd's exit.
func processMetrics(m map[string]float64, w workload, cli repetition, spawned <-chan time.Duration) error {
	m["proc.minflt_per_test"] = float64(cli.run.minFlt) / float64(w.tests())
	m["proc.sys_share"] = cli.run.sys.Seconds() / (cli.run.user + cli.run.sys).Seconds()
	if !w.sharded {
		return nil
	}
	if at, ok := <-spawned; ok {
		m["supervise.spawn_ms"] = at.Seconds() * 1e3
	}
	var first, last time.Duration
	for k := 0; k < w.cfg.Shards; k++ {
		ln, ok := cli.report.shardClosed[k]
		if !ok {
			return fmt.Errorf("avdd's output holds no checkpoint line for shard %d", k)
		}
		if k == 0 || ln.at < first {
			first = ln.at
		}
		last = max(last, ln.at)
	}
	m["supervise.shard_skew_s"] = (last - first).Seconds()
	m["supervise.tail_ms"] = (cli.run.wall - last).Seconds() * 1e3
	m["supervise.restarts"] = float64(cli.report.restarts)
	return nil
}

// spanMetrics fills in the metrics that come from the traced in-process
// campaign: the targets' phase accumulators, its spans, and exact counts
// over its results.
func spanMetrics(m map[string]float64, w workload, traced inProcess, spans []span) {
	tests := float64(w.tests())

	// Harness: phases, per-test walls, and masters — every process builds
	// one per client population it touches.
	var journalBytes, appends float64
	for _, s := range traced.shards {
		m["harness.warmup_s"] += s.phases.WarmupSeconds
		m["harness.baseline_s"] += s.phases.BaselineSeconds
		m["harness.fork_s"] += s.phases.ForkSeconds
		m["harness.analyze_s"] += s.phases.AnalyzeSeconds
		m["harness.run_s"] += s.phases.RunSeconds
		appends += float64(s.appends)
		journalBytes += float64(s.journalBytes)
		populations := make(map[string]bool)
		for _, r := range s.results {
			key := ""
			for _, d := range w.popDims {
				key += fmt.Sprintf("%d/", r.Scenario.GetOr(d, 0))
			}
			populations[key] = true
		}
		m["harness.masters_built"] += float64(len(populations))
	}
	m["harness.run_share"] = m["harness.run_s"] / totalSeconds(spans, spanRunAll)
	testMS := durationsMS(spans, "harness.test")
	m["harness.test_ms_p50"] = median(testMS)
	pct, tail := tailOf(testMS)
	m["harness.test_tail_pct"] = float64(pct)
	m["harness.test_ms_tail"] = tail

	// Engine and explorer.
	behaviors := make(map[uint64]bool)
	for _, r := range traced.results {
		if !r.Coverage.IsZero() {
			behaviors[r.Coverage.Behaviors] = true
		}
	}
	m["core.engine.self_s"] = selfSeconds(spans, spanRunAll)
	m["core.explorer.next_us"] = totalSeconds(spans, "core.explorer.next") * 1e6 / tests
	m["core.explorer.record_us"] = totalSeconds(spans, "core.explorer.record") * 1e6 / tests
	m["core.explorer.tests_to_impact90"] = float64(core.TestsToImpact(traced.results, 0.9))
	m["core.explorer.distinct_behaviors"] = float64(len(behaviors))

	// Assembly and reporting.
	m["campaign.build_ms"] = median(durationsMS(spans, spanBuild))
	m["trace.summarize_ms"] = median(durationsMS(spans, spanSummarize))
	m["trace.csv_us_per_result"] = totalSeconds(spans, spanCSV) * 1e6 / tests

	if !w.sharded {
		return
	}
	// Durable checkpoint and shard merge.
	appendMS := durationsMS(spans, spanAppend)
	m["core.durable.append_ms_p50"] = median(appendMS)
	_, m["core.durable.append_ms_tail"] = tailOf(appendMS)
	m["core.durable.fsyncs"] = appends + float64(len(traced.shards)) // one more per Close
	m["core.durable.bytes_per_result"] = journalBytes / tests
	m["core.durable.close_ms"] = median(durationsMS(spans, spanClose))
	m["core.durable.recover_ms"] = median(durationsMS(spans, spanRecover))
	m["core.shard.merge_ms"] = median(durationsMS(spans, spanMerge))

	// The durable tax: the time inside the calls only a -state run makes,
	// against the rest of the workers' campaigns. (Running the shard again
	// without -state and subtracting drowns a ~2% tax in +-5% run-to-run
	// noise.)
	var durable, campaigns float64
	for _, name := range []string{spanManifest, spanOpen, spanAppend, spanHeartbeat, spanClose} {
		durable += totalSeconds(spans, name)
	}
	for _, s := range traced.shards {
		campaigns += s.wall.Seconds()
	}
	m["core.durable.tax_share"] = durable / (campaigns - durable)
}
