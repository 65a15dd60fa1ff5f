package cluster

import (
	"slices"
	"testing"
	"time"

	"avd/internal/graycode"
	"avd/internal/plugin"
)

// TestParkedMastersHoldNoLeases is the retention half of the pool's
// contract (DESIGN.md §15): after forks interleaved across six
// populations — attack forks, the baseline forks they trigger and a cold
// run — nothing is on lease, and every parked master holds exactly the
// chunks its capture kept, at most one per slab.
func TestParkedMastersHoldNoLeases(t *testing.T) {
	w := fastWorkload()
	w.Measure = 400 * time.Millisecond
	r := newRunner(t, w)
	space := paperSpace(t)
	populations := []int64{10, 20, 30, 40, 50, 60}
	for round := 0; round < 3; round++ {
		for _, clients := range populations {
			r.RunFork(space.New(map[string]int64{
				plugin.DimCorrectClients: clients, plugin.DimMaliciousClients: 1, plugin.DimMACMask: 0xEEE,
			}))
		}
	}
	r.Run(space.New(map[string]int64{plugin.DimCorrectClients: 20, plugin.DimMaliciousClients: 1}))
	if got := r.pool.Leased(); got != 0 {
		t.Errorf("%d chunks still on lease with every master parked", got)
	}
	masters := 0
	r.EachMaster(func(key masterKey, d *deployment) {
		masters++
		if d.mem.Held() != d.mem.Owned() {
			t.Errorf("parked master %+v holds %d chunks, its capture kept %d", key, d.mem.Held(), d.mem.Owned())
		}
	})
	if masters < len(populations) {
		t.Fatalf("inspected %d parked masters, want at least %d", masters, len(populations))
	}
}

// TestPBFTRestoreAllocFree is the PBFT twin of raftsim's
// TestRaftRestoreAllocFree: with a warm pool, a window that leases its
// message memory and a restore that hands it back must not allocate.
func TestPBFTRestoreAllocFree(t *testing.T) {
	w := fastWorkload()
	r := newRunner(t, w)
	d := r.newDeployment(masterKey{correct: 8, malicious: 1})
	d.Capture()

	cycle := func() {
		d.eng.RunFor(100 * time.Millisecond)
		d.Restore()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("run+restore cycle allocates %.1f objects per fork; want 0", allocs)
	}
}

// TestForkedBigMACAllocs pins what one forked test costs the collector
// once its master and its baseline exist: the Big MAC attack (all-backup
// corruption, 30 correct clients, one malicious) over a 1.5 s window
// allocates forkedAllocs objects — arming the fault plan, the replicas'
// pre-prepare bookkeeping as the attack lands, the run's report; the
// window's messages come from the pool. Lower the pin when a change
// removes an allocation; raise it only with the reason the new one cannot
// live in the deployment or its arena. Cold runs (build + warm-up +
// capture) are not pinned: no campaign takes that path per test.
func TestForkedBigMACAllocs(t *testing.T) {
	const forkedAllocs = 21
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	r := newRunner(t, w)
	bigmac := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	r.Baseline(30)
	r.RunFork(bigmac) // builds, warms and captures the master
	if allocs := testing.AllocsPerRun(20, func() { r.RunFork(bigmac) }); allocs > forkedAllocs {
		t.Errorf("a forked Big MAC test allocates %.0f objects, pinned at %d", allocs, forkedAllocs)
	}
}

// windowLeaseChunks is what the unarmed 1.5 s window of the largest
// default population, 250 correct clients and one malicious, leases from
// the pool: 1.8 MB of 32 KB chunks. It was 1,260 (39 MB) while every
// message stayed carved until the rewind and 480 (15 MB) while only
// replies went back to the arena. Every message now goes back when its
// last holder drops it — a delivery, the pending buffer, a log entry, a
// forwarded-request record — and the log's holders let go at each stable
// checkpoint, so the window carves about what two checkpoint intervals
// hold at once: 42 chunks of pending-buffer trail (proposed batches are
// prefixes of it, so it is never handed back before the rewind), 14 of
// requests and 1 of replies. It was 67 while authenticators were tag
// vectors: 8 chunks of them, and 16 of requests, which were 64 bytes
// before their authenticator became a 16-byte verdict mask (mac.Auth). A
// change that moves it changed what the window sends, what a message costs
// or which messages go back; update the figure only with that explanation.
const windowLeaseChunks = 57

// TestWindowLease is the exact guard on window memory, the twin of
// raftsim's TestStormWindowLease (CI's perf-smoke runs both by name).
func TestWindowLease(t *testing.T) {
	r := newRunner(t, DefaultWorkload())
	d := r.newDeployment(masterKey{correct: 250, malicious: 1})
	d.Capture()
	d.Restore()
	d.eng.RunFor(1500 * time.Millisecond)
	if got := d.mem.Held() - d.mem.Owned(); got != windowLeaseChunks {
		t.Errorf("the window leased %d chunks (%d KB), want exactly %d", got, got*32, windowLeaseChunks)
	}
}

// TestWindowDispatchCounts is the exact guard on queue work (CI's
// perf-smoke runs it by name; ROADMAP 1(a)'s Cost record starts with
// these two fields): the unarmed 1.5 s window of the largest population
// a default campaign builds — 250 correct clients and one malicious —
// runs exactly windowExecuted callbacks and pays for them with exactly
// windowDispatches queue events, because a round's same-instant
// deliveries ride one sim.Stream train. Executed moves only if the
// protocol, the clients or the network send something else; Dispatches
// moves if a change schedules anything for the delivery instant between
// two sends and silently stops trains forming. Update either figure only
// with that explanation.
//
// Resets and Requeues count, over warm-up and window, the one timer PBFT
// re-arms through Engine.Reset: a client's retry timer, once per request
// (pbft.Client.armRetry). Resets are the re-arms that moved no queue node,
// Requeues the nodes they cost after all — stale ones the dispatcher
// re-keyed plus moves to an earlier instant. A client that completes a
// request leaves the pending timer to the next request's Reset instead of
// stopping it, which is what keeps the share re-armed in place above nine
// in ten; a Stop put back in front of the Reset shows here as a count.
func TestWindowDispatchCounts(t *testing.T) {
	const (
		windowExecuted   = 716_664
		windowDispatches = 3_296
		deployResets     = 159_716
		deployRequeues   = 9_297
	)
	r := newRunner(t, DefaultWorkload())
	d := r.newDeployment(masterKey{correct: 250, malicious: 1})
	d.Capture()
	d.Restore()
	executed, dispatches := d.eng.Executed(), d.eng.Dispatches()
	d.eng.RunFor(1500 * time.Millisecond)
	executed, dispatches = d.eng.Executed()-executed, d.eng.Dispatches()-dispatches
	if executed != windowExecuted || dispatches != windowDispatches {
		t.Errorf("the window ran %d callbacks from %d queue events, want exactly %d from %d",
			executed, dispatches, windowExecuted, windowDispatches)
	}
	resets, requeues := d.eng.Resets(), d.eng.Requeues()
	if resets != deployResets || requeues != deployRequeues {
		t.Errorf("the deployment re-armed %d client retry timers in place and re-queued %d, want exactly %d and %d",
			resets, requeues, deployResets, deployRequeues)
	}
	var arms uint64
	for _, c := range slices.Concat(d.clients, d.malicious) {
		st := c.Stats()
		arms += st.Issued + st.Retransmissions
	}
	if resets*10 < arms*9 {
		t.Errorf("%d of %d retry-timer arms moved no queue node, want at least nine in ten", resets, arms)
	}
}
