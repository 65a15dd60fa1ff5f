package pbft

import (
	"strconv"
	"testing"
	"time"
	"unsafe"

	"avd/internal/simnet"
)

// --- Larger deployments (f=2) -------------------------------------------------

func f2Config() Config {
	cfg := DefaultConfig()
	cfg.N = 7
	cfg.F = 2
	return cfg
}

func TestF2DeploymentMakesProgress(t *testing.T) {
	tb := newTestbed(t, testbedOpts{cfg: f2Config()})
	for i := 0; i < 10; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(time.Second)
	if got := totalCompleted(tb.clients); got < 500 {
		t.Fatalf("f=2 deployment completed %d requests, want >= 500", got)
	}
	tb.assertSafety()
}

func TestF2ToleratesTwoSilentReplicas(t *testing.T) {
	cfg := f2Config()
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(DefaultClientConfig())
	// Silence two backups (not the primary): quorum 2f+1=5 of 7 remains.
	for _, dead := range []int{5, 6} {
		for i := 0; i < cfg.N; i++ {
			if i != dead {
				tb.net.BlockPair(simnet.Addr(dead), simnet.Addr(i))
			}
		}
	}
	c.Start()
	tb.run(time.Second)
	if c.Stats().Completed < 50 {
		t.Fatalf("completed %d with f silent replicas, want progress", c.Stats().Completed)
	}
	tb.assertSafety()
}

func TestF2BigMACNeedsMoreCorruption(t *testing.T) {
	// With n=7, corrupting 2 backup entries per request still leaves a
	// 2f=4 backup quorum (6 backups - 2), so the attack from the n=4
	// analysis is absorbed.
	cfg := f2Config()
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 3; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	// 12-bit mask over 7 calls per request no longer aligns with
	// replica positions cycle-free; corrupt calls 1 and 2 of every 12:
	// hits at most two entries per request.
	m := tb.maliciousClient(0b000000000110, ClientConfig{Retry: 60 * time.Millisecond, RetryCap: 120 * time.Millisecond})
	m.Start()
	tb.run(2 * time.Second)
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			t.Errorf("replica %d crashed; two corrupt entries should be tolerated at f=2", r.ID())
		}
	}
	if totalCompleted(tb.clients[:3]) < 100 {
		t.Error("correct clients starved despite tolerable corruption")
	}
	tb.assertSafety()
}

// --- Healing ---------------------------------------------------------------------

func TestHealingUnblocksPoisonedBatch(t *testing.T) {
	// A mask corrupting the backups' entries only in the first
	// authenticator (calls 1,2,3) poisons the first transmission;
	// the client's first retransmission (calls 4..7) is clean and must
	// heal the poisoned batch without a view change.
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 600 * time.Millisecond
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	m := tb.maliciousClient(0b000000001110, ClientConfig{Retry: 30 * time.Millisecond, RetryCap: 60 * time.Millisecond})
	m.Start()
	tb.run(2 * time.Second)
	if m.Stats().Completed == 0 {
		t.Fatal("healed batch never executed")
	}
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			t.Errorf("replica %d crashed despite healable corruption", r.ID())
		}
		if r.View() != 0 {
			t.Errorf("replica %d view-changed despite healable corruption", r.ID())
		}
	}
	rejected := uint64(0)
	for _, r := range tb.replicas {
		rejected += r.Stats().RejectedBatches
	}
	if rejected == 0 {
		t.Error("expected poisoned batches before healing")
	}
	tb.assertSafety()
}

func TestVerifiedDirectCopyPreventsPoisoning(t *testing.T) {
	// If the valid copy arrives before the poisoned pre-prepare (client
	// broadcasts first), the backup accepts immediately.
	cfg := DefaultConfig()
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	// Malicious client broadcasts every request (colluder-style), with
	// corruption only on the first transmission's backup entries. The
	// broadcast copy for each backup IS its first-transmission entry, so
	// this still poisons; use a mask that corrupts no broadcast copies
	// but would corrupt piggybacked ones — impossible to distinguish in
	// this transport, so instead verify the bookkeeping directly.
	m := tb.maliciousClient(0, ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond, Broadcast: true})
	m.Start()
	tb.run(500 * time.Millisecond)
	if m.Stats().Completed == 0 {
		t.Fatal("broadcast client made no progress")
	}
	for _, r := range tb.replicas {
		if r.Stats().RejectedBatches != 0 {
			t.Errorf("replica %d rejected batches from a clean broadcast client", r.ID())
		}
	}
	tb.assertSafety()
}

// --- View-change details ------------------------------------------------------------

func TestViewChangeCascadesPastDeadPrimaries(t *testing.T) {
	// Kill replicas 0 AND 1 before traffic: the system must cascade
	// through view 1 (primary 1 dead) into view 2.
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	cfg.NewViewTimeout = 200 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	cfg.N = 7
	cfg.F = 2
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	for _, dead := range []int{0, 1} {
		for i := 0; i < cfg.N; i++ {
			if i != dead {
				tb.net.BlockPair(simnet.Addr(dead), simnet.Addr(i))
			}
		}
		tb.net.BlockPair(simnet.Addr(dead), simnet.Addr(cfg.N))
	}
	c.Start()
	tb.run(5 * time.Second)
	if c.Stats().Completed == 0 {
		t.Fatal("no progress after cascading view changes")
	}
	for i := 2; i < cfg.N; i++ {
		if v := tb.replicas[i].View(); v < 2 {
			t.Errorf("replica %d stuck in view %d, want >= 2", i, v)
		}
	}
	tb.assertSafety()
}

func TestJoinRulePullsLaggingReplicaIntoViewChange(t *testing.T) {
	// A replica that never saw the client traffic must still join the
	// view change once f+1 peers campaign (the §4.5.2 join rule).
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	// Primary dead; replica 3 cut off from the client so it never arms
	// its own timer.
	for i := 1; i < cfg.N; i++ {
		tb.net.BlockPair(simnet.Addr(0), simnet.Addr(i))
	}
	tb.net.BlockPair(simnet.Addr(0), c.Addr())
	tb.net.BlockPair(simnet.Addr(3), c.Addr())
	c.Start()
	tb.run(3 * time.Second)
	if v := tb.replicas[3].View(); v == 0 {
		t.Error("replica 3 never joined the view change")
	}
	tb.assertSafety()
}

func TestNewViewTimeoutDoubles(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	r := tb.replicas[1]
	if r.nvTimeout != cfg.NewViewTimeout {
		t.Fatalf("initial nvTimeout = %v", r.nvTimeout)
	}
	r.startViewChange(1)
	if r.nvTimeout != 2*cfg.NewViewTimeout {
		t.Errorf("nvTimeout after one VC = %v, want doubled", r.nvTimeout)
	}
	r.startViewChange(2)
	if r.nvTimeout != 4*cfg.NewViewTimeout {
		t.Errorf("nvTimeout after two VCs = %v, want quadrupled", r.nvTimeout)
	}
}

func TestEnterViewResetsTimeout(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	r := tb.replicas[1]
	r.startViewChange(1)
	r.startViewChange(2)
	r.enterView(2)
	if r.nvTimeout != cfg.NewViewTimeout {
		t.Errorf("nvTimeout after install = %v, want reset to %v", r.nvTimeout, cfg.NewViewTimeout)
	}
	if r.InViewChange() {
		t.Error("still in view change after install")
	}
}

// --- Crash model ------------------------------------------------------------------

func TestCrashedReplicaIgnoresMessages(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	r := tb.replicas[1]
	r.crash("test")
	if crashed, reason := r.Crashed(); !crashed || reason != "test" {
		t.Fatalf("Crashed() = %v %q", crashed, reason)
	}
	before := r.Stats()
	c := tb.addClient(DefaultClientConfig())
	c.Start()
	tb.run(300 * time.Millisecond)
	after := r.Stats()
	if after.ForwardedRequests != before.ForwardedRequests || after.BatchesExecuted != before.BatchesExecuted {
		t.Error("crashed replica kept processing")
	}
}

func TestCrashDisabledBigMACSurvives(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	opts := map[int][]ReplicaOption{}
	for i := 0; i < cfg.N; i++ {
		opts[i] = []ReplicaOption{WithCrashOnBadReproposal(false)}
	}
	tb := newTestbed(t, testbedOpts{cfg: cfg, replicaOpt: opts})
	for i := 0; i < 5; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	m := tb.maliciousClient(0xEEE, ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	m.Start()
	tb.run(4 * time.Second)
	for _, r := range tb.replicas {
		if crashed, _ := r.Crashed(); crashed {
			t.Error("replica crashed with the defect disabled")
		}
	}
	// The attack still forces view-change churn.
	churn := uint64(0)
	for _, r := range tb.replicas {
		churn += r.Stats().ViewsInstalled
	}
	if churn == 0 {
		t.Error("no view changes under sustained Big MAC without the crash defect")
	}
	tb.assertSafety()
}

// --- Checkpoints and watermarks ------------------------------------------------------

func TestWatermarkBlocksRunawayPrimary(t *testing.T) {
	// With checkpointing effectively disabled (huge interval), the
	// window must cap how far the primary can run ahead.
	cfg := DefaultConfig()
	cfg.CheckpointInterval = 1 << 20
	cfg.WindowSize = 1 << 20
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 10; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(time.Second)
	tb.assertSafety()
	// Sanity: progress still happens (window never binds at this size).
	if totalCompleted(tb.clients) == 0 {
		t.Fatal("no progress")
	}
}

func TestStateTransferCatchesUpSilencedReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 64
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	for i := 0; i < 5; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	// Cut replica 3 off from the primary only: it misses pre-prepares
	// but still hears checkpoints from the other backups.
	tb.net.BlockPair(simnet.Addr(0), simnet.Addr(3))
	tb.run(time.Second)
	r3 := tb.replicas[3]
	if r3.Stats().StateTransfers == 0 {
		t.Error("cut-off replica never used checkpoint state transfer")
	}
	if r3.LastExecuted() == 0 {
		t.Error("cut-off replica made no progress at all")
	}
	tb.assertSafety()
}

// --- Client behavior ---------------------------------------------------------------

func TestClientRetryBackoffCaps(t *testing.T) {
	eng := newTestbed(t, testbedOpts{}) // fresh net, replicas unused
	c := eng.addClient(ClientConfig{Retry: 10 * time.Millisecond, RetryCap: 35 * time.Millisecond})
	// Cut the client off entirely so every retry fires.
	for i := 0; i < eng.cfg.N; i++ {
		eng.net.BlockPair(c.Addr(), simnet.Addr(i))
	}
	c.Start()
	eng.run(300 * time.Millisecond)
	// Retries at 10+20+35+35+... ≈ 9 fires in 300ms. Without the cap it
	// would be ~5 (10+20+40+80+160). With no backoff at all, 30.
	got := c.Stats().Retransmissions
	if got < 7 || got > 12 {
		t.Errorf("retransmissions = %d, want ~9 with capped backoff", got)
	}
}

func TestClientStopsCleanly(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	c := tb.addClient(DefaultClientConfig())
	c.Start()
	tb.run(100 * time.Millisecond)
	done := c.Stats().Completed
	c.Stop()
	tb.run(200 * time.Millisecond)
	if c.Stats().Completed != done {
		t.Error("stopped client kept completing requests")
	}
	if _, ok := c.Outstanding(); ok {
		t.Error("stopped client reports an outstanding request")
	}
}

func TestClientLearnsViewFromReplies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	cfg.TimerMode = PerRequestTimer
	tb := newTestbed(t, testbedOpts{cfg: cfg})
	c := tb.addClient(ClientConfig{Retry: 50 * time.Millisecond, RetryCap: 100 * time.Millisecond})
	for i := 1; i < cfg.N; i++ {
		tb.net.BlockPair(simnet.Addr(0), simnet.Addr(i))
	}
	tb.net.BlockPair(simnet.Addr(0), c.Addr())
	c.Start()
	tb.run(3 * time.Second)
	if c.view == 0 {
		t.Error("client never learned the new view from replies")
	}
	// After learning, first transmissions go to the new primary: retry
	// counts stop growing once the view stabilizes.
	before := c.Stats().Retransmissions
	tb.run(time.Second)
	after := c.Stats().Retransmissions
	if after-before > 5 {
		t.Errorf("client still retransmitting heavily (%d in 1s) after view stabilized", after-before)
	}
}

// --- Misc -----------------------------------------------------------------------

func TestNullRequestProperties(t *testing.T) {
	n := NullRequest()
	if !n.IsNull() {
		t.Error("NullRequest not null")
	}
	r := &Request{Client: 5, Seq: 1}
	if r.IsNull() {
		t.Error("normal request reported null")
	}
	if n.Digest() == r.Digest() {
		t.Error("digest collision between null and normal request")
	}
}

// TestRequestLayout pins a request at 48 bytes on 64-bit builds, where
// simnet.Addr is 8 bytes: a warm-up's requests are heap objects until the
// capture, and 56 bytes would put each in Go's 64-byte size class.
func TestRequestLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("simnet.Addr is an int: the pin is of 64-bit builds")
	}
	if got := unsafe.Sizeof(Request{}); got != 48 {
		t.Fatalf("a request is %d bytes, want 48", got)
	}
}

func TestBatchDigestSensitivity(t *testing.T) {
	a := []*Request{{Client: 5, Seq: 1}, {Client: 6, Seq: 1}}
	b := []*Request{{Client: 5, Seq: 1}, {Client: 6, Seq: 2}}
	reordered := []*Request{a[1], a[0]}
	if BatchDigest(a) == BatchDigest(b) {
		t.Error("digest insensitive to seq change")
	}
	if BatchDigest(a) == BatchDigest(reordered) {
		t.Error("digest insensitive to batch order")
	}
	if BatchDigest(nil) != BatchDigest([]*Request{}) {
		t.Error("empty batch digests differ")
	}
}

func TestRequestKeyString(t *testing.T) {
	k := RequestKey{Client: 7, Seq: 42}
	if k.String() != "node7/42" {
		t.Errorf("RequestKey.String() = %q", k.String())
	}
}

func TestReplicaStatsAccumulate(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	for i := 0; i < 5; i++ {
		tb.addClient(DefaultClientConfig()).Start()
	}
	tb.run(time.Second)
	st := tb.replicas[0].Stats()
	if st.BatchesProposed == 0 || st.BatchesExecuted == 0 || st.RequestsExecuted == 0 {
		t.Errorf("primary stats empty: %+v", st)
	}
	if st.RequestsExecuted < st.BatchesExecuted {
		t.Error("fewer requests than batches executed")
	}
}

// TestClientRetryTimerExits: a closed-loop client that completes a request
// leaves the pending retry timer to the next request's Reset, so every exit
// that sends no next request from the same callback has to stop it:
// Client.Stop with a request in flight, and a Stop from inside the
// completion observer. At each the timer is inactive, Engine.Pending is
// exact, and no retry ever fires — onRetry would retransmit a request that
// has completed but not been followed.
func TestClientRetryTimerExits(t *testing.T) {
	ccfg := ClientConfig{Retry: 20 * time.Millisecond, RetryCap: 40 * time.Millisecond}
	for _, tc := range []struct {
		name    string
		exit    func(tb *testbed, c *Client) // runs inside onComplete
		drive   func(tb *testbed, c *Client) // from Start to the exit
		pending int
	}{
		{"stop-mid-request",
			func(tb *testbed, c *Client) { t.Error("the stopped client completed a request") },
			func(tb *testbed, c *Client) { tb.run(time.Millisecond); c.Stop() }, 1},
		{"stop-in-oncomplete",
			func(tb *testbed, c *Client) { c.Stop(); tb.eng.Stop() },
			func(tb *testbed, c *Client) { tb.eng.Run() }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, testbedOpts{})
			var c *Client
			exit := tc.exit
			c = tb.addClient(ccfg, WithOnComplete(func(uint64, time.Duration) {
				if exit != nil {
					exit(tb, c)
					exit = nil
				}
			}))
			c.Start()
			tc.drive(tb, c)
			if c.retryTimer.Active() {
				t.Error("the retry timer is still pending")
			}
			if got := tb.eng.Pending(); got != tc.pending {
				t.Errorf("%d events pending, want exactly %d", got, tc.pending)
			}
			tb.eng.Resume()
			tb.run(time.Second)
			if got := c.Stats().Retransmissions; got != 0 {
				t.Errorf("%d retransmissions, want none", got)
			}
		})
	}
}
