package main

// metricDef declares one benchmark metric. BENCHMARK.json repeats name,
// unit, better and (for end-to-end metrics) bound; a test holds the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" | "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	about  string  // what it measures, and the end-to-end metric it should move
}

// endToEnd are the metrics a user of avd/avdd sees. All are host time
// and host memory; none is virtual time.
var endToEnd = []metricDef{
	{"tests_per_s", "tests/s", "higher", 0.25, "budget / wall of one child campaign, exec to exit; lower-quartile wall over identical fresh-process repetitions"},
	{"cpu_s_per_test", "s", "lower", 0.25, "user+sys CPU of the child and its descendants (wait4 rusage) / budget; lower quartile over the same repetitions"},
	{"peak_rss_mb", "MB", "lower", 0.05, "max RSS of any one child process; largest over the same repetitions"},
	{"setup_s", "s", "lower", 0.25, "campaign.Build + Prepare of every client population on a fresh target, in-process; fastest of three repetitions"},
}

// perLayer are the metrics of single layers, printed by a -trace run.
// Layers are this repo's packages. A metric that does not apply to the
// workload being traced (the durable/shard/supervise group on a serial
// workload) reads 0.
var perLayer = []metricDef{
	// Harness phases (the target's own Phases accessor) and spans around
	// core.Target calls.
	{"harness.warmup_s", "s", "lower", 0, "master build + 300 ms warm-up, summed over the campaign -> setup_s, peak_rss_mb"},
	{"harness.baseline_s", "s", "lower", 0, "attack-free baseline windows -> setup_s"},
	{"harness.fork_s", "s", "lower", 0, "snapshot restore + fault arming -> tests_per_s on pbft-faults-coverage"},
	{"harness.analyze_s", "s", "lower", 0, "impact scoring -> tests_per_s on pbft-faults-coverage"},
	{"harness.run_s", "s", "lower", 0, "measurement windows -> tests_per_s, cpu_s_per_test on pbft-fig2, raft-flap"},
	{"harness.run_share", "share", "lower", 0, "run_s / campaign wall: the ceiling on what any window optimisation can save"},
	{"harness.test_ms_p50", "ms", "lower", 0, "median wall of one RunFork call (n = budget)"},
	{"harness.test_ms_tail", "ms", "lower", 0, "RunFork wall at the highest percentile with >= 10 samples beyond it"},
	{"harness.test_tail_pct", "pct", "higher", 0, "which percentile harness.test_ms_tail is (set by the budget)"},
	{"harness.masters_built", "count", "lower", 0, "distinct client populations the campaign touched (exact) -> peak_rss_mb"},
	// Engine and explorer.
	{"core.engine.self_s", "s", "lower", 0, "Engine.RunAll minus target, explorer and sink spans -> tests_per_s on pbft-faults-coverage"},
	{"core.explorer.next_us", "us", "lower", 0, "Explorer.Next per test"},
	{"core.explorer.record_us", "us", "lower", 0, "Explorer.Record per test"},
	{"core.explorer.tests_to_impact90", "count", "lower", 0, "first test with impact >= 0.9 (exact; 0 = never) - must not move under a simulator-only speed-up"},
	{"core.explorer.distinct_behaviors", "count", "higher", 0, "distinct behaviour digests in the results (exact): useful outcomes per budget"},
	// Durable checkpoint, shard merge, campaign assembly, reporting.
	{"core.durable.append_ms_p50", "ms", "lower", 0, "journal frame write + fsync per batch -> tests_per_s on pbft-sharded-durable"},
	{"core.durable.append_ms_tail", "ms", "lower", 0, "append at the highest percentile with >= 10 samples beyond it"},
	{"core.durable.fsyncs", "count", "lower", 0, "sink calls + closes, one fsync each (exact)"},
	{"core.durable.bytes_per_result", "B", "lower", 0, "journal bytes / results (exact)"},
	{"core.durable.close_ms", "ms", "lower", 0, "DurableCheckpoint.Close per shard"},
	{"core.durable.recover_ms", "ms", "lower", 0, "ReadDurableResults per shard (the supervisor's merge input)"},
	{"core.durable.tax_share", "share", "lower", 0, "time in the -state-only calls (manifest, open, append, heartbeat, close) / the rest of the workers' campaigns"},
	{"core.shard.merge_ms", "ms", "lower", 0, "MergeShards over both shards"},
	{"campaign.build_ms", "ms", "lower", 0, "campaign.Build per process"},
	{"trace.summarize_ms", "ms", "lower", 0, "SummarizeCampaign per call"},
	{"trace.csv_us_per_result", "us", "lower", 0, "WriteCampaignCSV / results"},
	// Supervision, observed from outside the avdd child.
	{"supervise.spawn_ms", "ms", "lower", 0, "avdd exec -> first worker heartbeat file"},
	{"supervise.tail_ms", "ms", "lower", 0, "last worker's checkpoint close -> avdd exit (recover + merge + summary + csv)"},
	{"supervise.shard_skew_s", "s", "lower", 0, "gap between the two shards finishing: the slower shard sets the result"},
	{"supervise.restarts", "count", "lower", 0, "worker restarts (must be 0)"},
	// Process-level cost of the end-to-end child, and the tracer's own.
	{"proc.minflt_per_test", "count", "lower", 0, "minor page faults of the child / budget -> peak_rss_mb, and weather sensitivity"},
	{"proc.sys_share", "share", "lower", 0, "sys / (user+sys) CPU of the child -> cpu_s_per_test"},
	{"trace.overhead_share", "share", "lower", 0, "(traced - untraced in-process campaign wall) / untraced"},
	// Layer probes: workload-independent unit costs, min over passes.
	{"sim.event_ns", "ns", "lower", 0, "schedule + fire one timer -> raft-flap, pbft-faults-coverage"},
	{"sim.restore_us", "us", "lower", 0, "run 1024 events then Restore the snapshot -> pbft-faults-coverage"},
	{"simnet.msg_ns", "ns", "lower", 0, "Send + deliver one message -> pbft-fig2"},
	{"simnet.faulty_msg_ns", "ns", "lower", 0, "Send + deliver with corrupt and dup link faults armed -> pbft-faults-coverage"},
	{"mac.auth_ns", "ns", "lower", 0, "NewAuthenticator over 4 keys + VerifyEntry -> pbft-fig2 only"},
	{"pbft.commit_us", "us", "lower", 0, "clean 100-client forked window: wall / CorrectCompleted -> pbft-fig2"},
	{"pbft.commits_per_test", "count", "higher", 0, "CorrectCompleted of that window (exact)"},
	{"pbft.viewchange_test_ms", "ms", "lower", 0, "one forked Big MAC test (crash + view changes) -> pbft-fig2"},
	{"raftsim.commit_us", "us", "lower", 0, "clean 50-client forked raft window: wall / Completed -> raft-flap"},
	{"raftsim.storm_test_ms", "ms", "lower", 0, "one forked leader-flap 300/200 test -> raft-flap"},
	{"oracle.observe_ns", "ns", "lower", 0, "Agreement + ElectionSafety + Coverage set, one event -> pbft-fig2"},
	{"oracle.events_per_test", "count", "lower", 0, "oracle events of the clean 100-client window (exact)"},
	{"harness.fork_test_us", "us", "lower", 0, "RunFork with a 1 ms window: restore + arm + score -> pbft-faults-coverage"},
	{"harness.cold_test_ms", "ms", "lower", 0, "Run with a 1 ms window: cold build + warm-up, what a fork saves"},
	{"core.engine.dispatch_us", "us", "lower", 0, "engine + random explorer per test over a no-op target -> pbft-faults-coverage"},
	{"scenario.compact_ns", "ns", "lower", 0, "Scenario.Compact dedup key"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill builds the metrics object for defs from measured values; a
// per-layer metric that was not measured on this workload reads 0.
func fill(defs []metricDef, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: measured[d.name], Unit: d.unit}
	}
	return out
}
