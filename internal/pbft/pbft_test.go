package pbft

import (
	"testing"
	"time"

	"avd/internal/faultinject"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// testbed wires a PBFT deployment over a simulated network.
type testbed struct {
	t        *testing.T
	eng      *sim.Engine
	net      *simnet.Network
	cfg      Config
	replicas []*Replica
	clients  []*Client
}

type testbedOpts struct {
	cfg        Config
	netCfg     simnet.Config
	seed       int64
	replicaOpt map[int][]ReplicaOption
}

func defaultNetConfig() simnet.Config {
	return simnet.Config{BaseLatency: 500 * time.Microsecond}
}

func newTestbed(t *testing.T, o testbedOpts) *testbed {
	t.Helper()
	if o.cfg.N == 0 {
		o.cfg = DefaultConfig()
	}
	if o.netCfg.BaseLatency == 0 {
		o.netCfg = defaultNetConfig()
	}
	if o.seed == 0 {
		o.seed = 1
	}
	eng := sim.New(o.seed)
	net := simnet.New(eng, o.netCfg)
	tb := &testbed{t: t, eng: eng, net: net, cfg: o.cfg}
	for i := 0; i < o.cfg.N; i++ {
		r, err := NewReplica(i, o.cfg, net, o.replicaOpt[i]...)
		if err != nil {
			t.Fatalf("NewReplica(%d): %v", i, err)
		}
		tb.replicas = append(tb.replicas, r)
	}
	return tb
}

func (tb *testbed) addClient(ccfg ClientConfig, opts ...ClientOption) *Client {
	tb.t.Helper()
	addr := simnet.Addr(tb.cfg.N + len(tb.clients))
	c, err := NewClient(addr, tb.cfg, ccfg, tb.net, opts...)
	if err != nil {
		tb.t.Fatalf("NewClient: %v", err)
	}
	tb.clients = append(tb.clients, c)
	return c
}

// maliciousClient adds a client whose generateMAC is corrupted per the
// paper's 12-bit ModMask scheme.
func (tb *testbed) maliciousClient(mask uint64, ccfg ClientConfig) *Client {
	tb.t.Helper()
	plan := faultinject.NewPlan(faultinject.Rule{
		Point:    PointGenerateMAC,
		Trigger:  faultinject.ModMask{Mask: mask, Period: 12},
		Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
	})
	c := tb.addClient(ccfg)
	c.SetPlan(plan)
	return c
}

func (tb *testbed) run(d time.Duration) { tb.eng.RunFor(d) }

// assertSafety checks that all non-crashed replicas that executed a
// common prefix agree on it (equal state digests at equal lastExec is a
// sufficient proxy given the digest chains every executed request).
func (tb *testbed) assertSafety() {
	tb.t.Helper()
	type snap struct {
		exec   uint64
		digest uint64
	}
	var snaps []snap
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			continue
		}
		snaps = append(snaps, snap{r.LastExecuted(), r.StateDigest()})
	}
	for i := 0; i < len(snaps); i++ {
		for j := i + 1; j < len(snaps); j++ {
			if snaps[i].exec == snaps[j].exec && snaps[i].exec > 0 &&
				snaps[i].digest != snaps[j].digest {
				tb.t.Fatalf("safety violation: replicas at seq %d disagree on state (%x vs %x)",
					snaps[i].exec, snaps[i].digest, snaps[j].digest)
			}
		}
	}
}

func totalCompleted(clients []*Client) uint64 {
	var n uint64
	for _, c := range clients {
		n += c.Stats().Completed
	}
	return n
}

// --- Normal-case operation -------------------------------------------------

func TestSingleClientMakesProgress(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	c := tb.addClient(DefaultClientConfig())
	c.Start()
	tb.run(time.Second)
	if got := c.Stats().Completed; got < 50 {
		t.Fatalf("client completed %d requests in 1s, want >= 50", got)
	}
	if c.Stats().Retransmissions != 0 {
		t.Errorf("healthy run should not retransmit, got %d", c.Stats().Retransmissions)
	}
	tb.assertSafety()
}

func TestManyClientsThroughputScales(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	for i := 0; i < 20; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(time.Second)
	total := totalCompleted(tb.clients)
	if total < 1000 {
		t.Fatalf("20 clients completed %d requests in 1s, want >= 1000", total)
	}
	tb.assertSafety()
}

func TestExecutionIsInOrderAcrossReplicas(t *testing.T) {
	tb := newTestbed(t, testbedOpts{netCfg: simnet.Config{
		BaseLatency: 500 * time.Microsecond,
		Jitter:      2 * time.Millisecond, // aggressive reordering
	}})
	for i := 0; i < 8; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(2 * time.Second)
	tb.assertSafety()
	if totalCompleted(tb.clients) == 0 {
		t.Fatal("no progress under jitter")
	}
}

func TestBatchingBoundsPrePrepares(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 8
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 30; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(time.Second)
	st := tb.replicas[0].Stats()
	if st.BatchesProposed == 0 {
		t.Fatal("primary proposed nothing")
	}
	reqs := st.RequestsExecuted
	batches := st.BatchesExecuted
	if batches == 0 || reqs/batches < 2 {
		t.Errorf("batching ineffective: %d requests in %d batches", reqs, batches)
	}
	tb.assertSafety()
}

func TestCheckpointAdvancesWatermark(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointInterval = 16
	cfg.WindowSize = 32
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 10; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(2 * time.Second)
	for _, r := range tb.replicas {
		if r.Stats().CheckpointsStable == 0 {
			t.Errorf("replica %d never stabilized a checkpoint", r.ID())
		}
		if r.lowWater == 0 {
			t.Errorf("replica %d never advanced its watermark", r.ID())
		}
		if len(r.log) > int(cfg.WindowSize)+1 {
			t.Errorf("replica %d log grew to %d entries, window is %d", r.ID(), len(r.log), cfg.WindowSize)
		}
	}
	tb.assertSafety()
}

func TestDuplicateRequestGetsCachedReply(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	c := tb.addClient(ClientConfig{Retry: 5 * time.Millisecond, RetryCap: 5 * time.Millisecond})
	c.Start()
	tb.run(300 * time.Millisecond)
	// With a retry far below the achievable latency floor the client
	// will retransmit executed requests; caching must keep progress and
	// replicas must not double-execute.
	if c.Stats().Completed == 0 {
		t.Fatal("no progress with aggressive retry")
	}
	tb.assertSafety()
	r0 := tb.replicas[0].Stats()
	if r0.RequestsExecuted > c.Stats().Completed+5 {
		t.Errorf("replica executed %d requests for %d completions: duplicates re-executed",
			r0.RequestsExecuted, c.Stats().Completed)
	}
}

// --- View changes -----------------------------------------------------------

func TestViewChangeOnUnresponsivePrimary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	// Cut the primary off from everyone before any traffic.
	for i := 1; i < cfg.N; i++ {
		tb.net.BlockPair(simnet.Addr(0), simnet.Addr(i))
	}
	c.Start()
	tb.run(3 * time.Second)
	for i := 1; i < cfg.N; i++ {
		if v := tb.replicas[i].View(); v == 0 {
			t.Errorf("replica %d still in view 0 with a dead primary", i)
		}
	}
	if c.Stats().Completed == 0 {
		t.Fatal("client made no progress after view change")
	}
	tb.assertSafety()
}

func TestViewChangePreservesExecutedState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 200 * time.Millisecond})
	c.Start()
	tb.run(500 * time.Millisecond)
	before := totalCompleted(tb.clients)
	if before == 0 {
		t.Fatal("no progress before partition")
	}
	// Kill the primary mid-run.
	for i := 1; i < cfg.N; i++ {
		tb.net.BlockPair(simnet.Addr(0), simnet.Addr(i))
	}
	tb.net.BlockPair(simnet.Addr(0), c.Addr())
	tb.run(3 * time.Second)
	after := totalCompleted(tb.clients)
	if after <= before {
		t.Fatalf("no progress after view change: %d -> %d", before, after)
	}
	tb.assertSafety()
}

func TestNewViewReproposesPreparedBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	// Partition the primary away from clients only (replicas still
	// connected): primary keeps proposing for a moment then stops getting
	// requests. Then cut it fully; prepared-but-unexecuted batches must
	// survive into the new view.
	c := tb.addClient(ClientConfig{Retry: 40 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	c.Start()
	tb.run(300 * time.Millisecond)
	for i := 1; i < cfg.N; i++ {
		tb.net.BlockPair(simnet.Addr(0), simnet.Addr(i))
	}
	tb.net.BlockPair(simnet.Addr(0), c.Addr())
	tb.run(3 * time.Second)
	tb.assertSafety()
	// All live replicas must have converged to the same executed history.
	e1, e2, e3 := tb.replicas[1].LastExecuted(), tb.replicas[2].LastExecuted(), tb.replicas[3].LastExecuted()
	if e1 == 0 || e1 != e2 || e2 != e3 {
		t.Errorf("live replicas diverged after view change: %d %d %d", e1, e2, e3)
	}
}

// --- The Big MAC attack (R1) -------------------------------------------------

// TestBigMACFullBackupCorruptionTriggersViewChangeAndCrash reproduces §6:
// a malicious client corrupting the backups' MAC entries in every message
// (primary entry left valid) poisons batches, stalls execution, forces a
// view change, and crashes replicas in the view-change path.
func TestBigMACFullBackupCorruptionTriggersViewChangeAndCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 500 * time.Millisecond
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 5; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	// Mask 0xEEE: entries 1,2,3 (all backups in view 0) corrupt in every
	// message; primary entry 0 valid.
	m := tb.maliciousClient(0xEEE, ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	m.Start()
	tb.run(5 * time.Second)

	crashes := 0
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			crashes++
		}
	}
	if crashes == 0 {
		t.Error("no replica crashed under the Big MAC attack")
	}
	rejected := uint64(0)
	for _, r := range tb.replicas {
		rejected += r.Stats().RejectedBatches
	}
	if rejected == 0 {
		t.Error("no poisoned batches were rejected")
	}
	tb.assertSafety()
}

// TestBigMACCollapsesThroughput verifies the headline impact: correct
// clients' throughput under attack is a small fraction of baseline.
func TestBigMACCollapsesThroughput(t *testing.T) {
	run := func(attack bool) uint64 {
		cfg := DefaultConfig()
		cfg.ViewChangeTimeout = 500 * time.Millisecond
		tb := newTestbed(t, testbedOpts{cfg: cfg})
		for i := 0; i < 10; i++ {
			tb.addClient(DefaultClientConfig()).Start()
		}
		if attack {
			m := tb.maliciousClient(0xEEE, ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
			m.Start()
		}
		tb.run(5 * time.Second)
		return totalCompleted(tb.clients[:10])
	}
	baseline := run(false)
	attacked := run(true)
	if baseline == 0 {
		t.Fatal("baseline made no progress")
	}
	if attacked*5 > baseline {
		t.Errorf("Big MAC too weak: attacked=%d baseline=%d (want < 20%%)", attacked, baseline)
	}
}

// TestCleanRetransmissionsAvoidViewChange reproduces the undocumented-bug
// dynamics of §6: a mask that corrupts only the first transmission's MACs
// but leaves retransmissions intact never forces a view change.
func TestCleanRetransmissionsAvoidViewChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 3; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	// Mask 0x00F corrupts calls 0..3 (the first authenticator) and leaves
	// calls 4..11 clean: the first transmission is fully corrupt, every
	// retransmission within the 12-cycle is clean and executes.
	m := tb.maliciousClient(0x00F, ClientConfig{Retry: 60 * time.Millisecond, RetryCap: 120 * time.Millisecond})
	m.Start()
	tb.run(4 * time.Second)
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			t.Errorf("replica %d crashed; clean retransmissions should keep the system up", r.ID())
		}
		if r.View() != 0 {
			t.Errorf("replica %d moved to view %d; clean retransmissions should prevent view changes", r.ID(), r.View())
		}
	}
	if m.Stats().Completed == 0 {
		t.Error("malicious client's clean retransmissions never executed")
	}
	tb.assertSafety()
}

// TestSingleBackupCorruptionTolerated: corrupting one backup's entry per
// message is absorbed by the quorum (BFT working as designed) — no view
// change, no crash, no stall.
func TestSingleBackupCorruptionTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 3; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	// Mask 0x222: entry 1 corrupt in every message; 2f quorum reachable
	// via replicas 2,3.
	m := tb.maliciousClient(0x222, ClientConfig{Retry: 60 * time.Millisecond, RetryCap: 120 * time.Millisecond})
	m.Start()
	tb.run(2 * time.Second)
	for _, r := range tb.replicas {
		if r.View() != 0 {
			t.Errorf("replica %d view-changed under a tolerable fault", r.ID())
		}
	}
	if m.Stats().Completed == 0 {
		t.Error("malicious client's requests should still commit with one corrupt entry")
	}
	if tb.replicas[1].Stats().RejectedBatches == 0 {
		t.Error("replica 1 should have rejected poisoned batches")
	}
	if tb.replicas[1].Stats().StateTransfers == 0 {
		t.Error("replica 1 should have executed via the commit-quorum state transfer")
	}
	tb.assertSafety()
}

// --- The slow-primary bug (R3) -----------------------------------------------

func slowPrimaryBed(t *testing.T, mode TimerMode, collude bool) (*testbed, []*Client, *Client) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 500 * time.Millisecond
	cfg.TimerMode = mode
	byz := &ByzantineBehavior{SlowPrimary: true}
	var colluder *Client
	tb := newTestbed(t, testbedOpts{
		cfg:        cfg,
		replicaOpt: map[int][]ReplicaOption{0: {WithByzantine(byz)}},
	})
	var correct []*Client
	for i := 0; i < 5; i++ {
		c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
		c.Start()
		correct = append(correct, c)
	}
	if collude {
		colluder = tb.addClient(ClientConfig{
			Retry:     50 * time.Millisecond,
			RetryCap:  100 * time.Millisecond,
			Broadcast: true, // seeds the backups' single timer
		})
		byz.ColludeWith = map[simnet.Addr]bool{colluder.Addr(): true}
		colluder.Start()
	}
	return tb, correct, colluder
}

// TestSlowPrimarySingleTimerSustainsStarvation reproduces the 0.2 req/s
// result: with the buggy single timer, a primary executing one request
// per period is never suspected.
func TestSlowPrimarySingleTimerSustainsStarvation(t *testing.T) {
	tb, correct, _ := slowPrimaryBed(t, SingleTimer, false)
	tb.run(10 * time.Second)
	for _, r := range tb.replicas {
		if r.View() != 0 {
			t.Errorf("replica %d deposed the slow primary despite the single-timer bug", r.ID())
		}
	}
	done := totalCompleted(correct)
	// One request per 450ms period over 10s ≈ 22; allow slack but it must
	// be starvation-level, far below the thousands of a healthy system.
	if done > 60 {
		t.Errorf("slow primary executed %d requests; starvation not reproduced", done)
	}
	if done == 0 {
		t.Error("slow primary must execute ~1 request per period, got 0")
	}
	tb.assertSafety()
}

// TestSlowPrimaryPerRequestTimerDeposesPrimary: the spec-compliant timer
// fires for the starved requests and removes the slow primary (A2).
func TestSlowPrimaryPerRequestTimerDeposesPrimary(t *testing.T) {
	tb, correct, _ := slowPrimaryBed(t, PerRequestTimer, false)
	tb.run(10 * time.Second)
	moved := false
	for _, r := range tb.replicas {
		if r.View() > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("per-request timers never deposed the slow primary")
	}
	done := totalCompleted(correct)
	if done < 500 {
		t.Errorf("after deposing the slow primary only %d requests completed", done)
	}
	tb.assertSafety()
}

// TestSlowPrimaryCollusionZeroUsefulThroughput reproduces the collusion
// result: the primary serves only its accomplice, correct clients get 0.
func TestSlowPrimaryCollusionZeroUsefulThroughput(t *testing.T) {
	tb, correct, colluder := slowPrimaryBed(t, SingleTimer, true)
	tb.run(10 * time.Second)
	for _, r := range tb.replicas {
		if r.View() != 0 {
			t.Errorf("replica %d deposed the colluding primary despite the single-timer bug", r.ID())
		}
	}
	if done := totalCompleted(correct); done != 0 {
		t.Errorf("correct clients completed %d requests; collusion should starve them to 0", done)
	}
	if colluder.Stats().Completed == 0 {
		t.Error("colluder made no progress; the timer would then fire")
	}
	tb.assertSafety()
}

// --- Config validation --------------------------------------------------------

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.N = 5 },
		func(c *Config) { c.F = 0; c.N = 1 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.CheckpointInterval = 0 },
		func(c *Config) { c.WindowSize = 1 },
		func(c *Config) { c.ViewChangeTimeout = 0 },
		func(c *Config) { c.NewViewTimeout = 0 },
		func(c *Config) { c.TimerMode = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestPrimaryRotation(t *testing.T) {
	cfg := DefaultConfig()
	for v := uint64(0); v < 12; v++ {
		if got, want := cfg.PrimaryOf(v), int(v%4); got != want {
			t.Errorf("PrimaryOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestReplicaRejectsBadID(t *testing.T) {
	eng := sim.New(1)
	net := simnet.New(eng, defaultNetConfig())
	if _, err := NewReplica(7, DefaultConfig(), net); err == nil {
		t.Error("replica id out of range accepted")
	}
}

func TestClientRejectsReplicaAddr(t *testing.T) {
	eng := sim.New(1)
	net := simnet.New(eng, defaultNetConfig())
	if _, err := NewClient(simnet.Addr(2), DefaultConfig(), DefaultClientConfig(), net); err == nil {
		t.Error("client address colliding with replicas accepted")
	}
}

func TestTimerModeString(t *testing.T) {
	if SingleTimer.String() != "single-timer" || PerRequestTimer.String() != "per-request-timer" {
		t.Error("TimerMode.String() broken")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		tb := newTestbed(t, testbedOpts{seed: 99})
		for i := 0; i < 5; i++ {
			tb.addClient(DefaultClientConfig()).Start()
		}
		m := tb.maliciousClient(0xEEE, ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
		m.Start()
		tb.run(2 * time.Second)
		return totalCompleted(tb.clients), tb.replicas[0].StateDigest()
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Errorf("nondeterministic PBFT run: (%d,%x) vs (%d,%x)", c1, d1, c2, d2)
	}
}
