package cluster

import (
	"slices"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/core/targettest"
	"avd/internal/graycode"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

type contract = targettest.Internals[Workload, masterKey, *deployment, Report]

// The target contract (internal/core/targettest) on PBFT, one check per
// test. The forked == cold groups of the fault vocabulary, the queue-hook
// campaigns and the workers=4 campaign drive PBFT through its exported
// API alone, and run from the root package's contract_test.go.

func TestBaselineForkedEqualsCold(t *testing.T) { pbftContract(t).Baseline(t, "populations") }

// TestBaselineWindowForkedEqualsCold: the same at the owned-replies
// capture, replies in flight.
func TestBaselineWindowForkedEqualsCold(t *testing.T) { pbftContract(t).Baseline(t, "owned replies") }

func TestOwnedRepliesForkedEqualsCold(t *testing.T) {
	pbftContract(t).ForkedEqualsCold(t, "owned replies")
}

func TestSharedPayloadsForkedEqualsCold(t *testing.T) {
	pbftContract(t).ForkedEqualsCold(t, "shared payloads")
}

// TestAllOffMeasuresBaseline: with every axis at its minimum, nothing
// arms, so the run measures its baseline exactly.
func TestAllOffMeasuresBaseline(t *testing.T) {
	w := DefaultWorkload()
	pbftContract(t).AllOff(t, w, w.LatencyRef, 10, 50, 250)
}

func TestRunOnFromCaptureThenFork(t *testing.T)         { pbftContract(t).RunOnFromCapture(t) }
func TestStormHungSameWithSplitTrains(t *testing.T)     { pbftContract(t).Hung(t) }
func TestParkedMastersHoldNoLeases(t *testing.T)        { pbftContract(t).Retention(t, "populations") }
func TestPBFTRestoreAllocFree(t *testing.T)             { pbftContract(t).RestoreAllocFree(t, "populations") }
func TestWindowLease(t *testing.T)                      { pbftContract(t).Pin(t, "window lease") }
func TestWindowDispatchCounts(t *testing.T)             { pbftContract(t).Pin(t, "window dispatch counts") }
func TestForkedBigMACAllocs(t *testing.T)               { pbftContract(t).Pin(t, "Big MAC fork") }
func TestForkedViewChangeAllocs(t *testing.T)           { pbftContract(t).Pin(t, "view-change fork") }
func TestRunnerDeterministic(t *testing.T)              { pbftContract(t).Deterministic(t, "populations") }
func TestParallelSweepSafe(t *testing.T)                { pbftContract(t).ConcurrentForks(t, "populations") }
func TestStructuralMarkerMatchesMasterKey(t *testing.T) { pbftContract(t).StructuralKey(t) }
func FuzzForkEqualsCold(f *testing.F)                   { targettest.FuzzForkEqualsCold(f, pbftContract(f)) }

// contractTarget is the PBFT target over the hyperspace `avd -faults
// crash,skew,oneway,corrupt,dup` explores.
func contractTarget(tb testing.TB, w Workload) targettest.Target[masterKey, *deployment, Report] {
	r, err := NewTarget(w, plugin.NewMACCorrupt(), plugin.NewClients(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(4), plugin.NewOneWay(4), plugin.NewNetFaults(4, true, true))
	if err != nil {
		tb.Fatal(err)
	}
	return targettest.Target[masterKey, *deployment, Report]{
		Harness: r.Harness, Measure: w.Measure,
		Build: func(sc scenario.Scenario) *deployment { return r.newDeployment(populationOf(sc)) },
	}
}

// windows is the default workload with another warm-up, window and step
// budget.
func windows(warmup, measure time.Duration, budget uint64) Workload {
	w := DefaultWorkload()
	w.Warmup, w.Measure, w.StepBudget = warmup, measure, budget
	return w
}

// completed sums the requests clients have completed.
func completed(clients []*pbft.Client) (n uint64) {
	for _, c := range clients {
		n += c.Stats().Completed
	}
	return n
}

func pbftContract(tb testing.TB) contract {
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), plugin.NewReorder(), plugin.NewFaultPlan(), plugin.NewSlowPrimary(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(4), plugin.NewOneWay(4), plugin.NewNetFaults(4, true, true))
	if err != nil {
		tb.Fatal(err)
	}
	at := func(point map[string]int64) scenario.Scenario { return space.New(point) }
	type pt = map[string]int64
	const c, m = plugin.DimCorrectClients, plugin.DimMaliciousClients

	fullWindow := windows(300*time.Millisecond, 1500*time.Millisecond, 0)
	bigMAC := at(pt{plugin.DimMACMask: int64(graycode.Decode(0xEEE)), c: 30, m: 1})
	largest := at(pt{c: 250, m: 1})
	// The view-0 primary's outbound links cut: every view it leads
	// stalls, and the backups change views until one installs.
	primaryMuted := at(pt{plugin.DimOneWayVictim: 1, plugin.DimOneWayDir: 1, c: 100, m: 1})

	return contract{
		Spec: targettest.Spec[Workload, Report]{
			New: func(tb testing.TB, w Workload) targettest.Runner[Report] { return contractTarget(tb, w).Harness },
			Groups: []targettest.Group[Workload, Report]{
				// Three populations, two of them attacked.
				{Name: "populations", W: windows(200*time.Millisecond, 400*time.Millisecond, 0), Cases: []targettest.Case[Report]{
					{Name: "MAC mask, 10 clients", Scenario: at(pt{plugin.DimMACMask: 0xEEE, c: 10, m: 1})},
					{Name: "25 clients", Scenario: at(pt{c: 25, m: 1})},
					{Name: "MAC mask, 40 clients, two malicious", Scenario: at(pt{plugin.DimMACMask: 1234, c: 40, m: 2})},
				}},
				// A reply goes back to the arena the moment its delivery has run
				// (DESIGN.md §20). The closed-loop clients move in lock step, one
				// 4 ms round after another, and replies are on the wire for half a
				// millisecond of each: a round warm-up captures between rounds,
				// this one does not. Every fork delivers those replies again; a
				// dup fault puts two deliveries behind one reply; crashes with
				// state loss reset the last-reply table; and replies delayed past
				// the clients' retry are answered with copies out of that table.
				{Name: "owned replies", W: windows(102250*time.Microsecond, 300*time.Millisecond, 0), Cases: []targettest.Case[Report]{
					{Name: "unarmed", Scenario: largest},
					{Name: "dup on one replica's links", Scenario: at(pt{c: 250, m: 1, plugin.DimDupMask: 0xFF, plugin.DimNetFaultFrom: 2})},
					{Name: "crash with state loss", Scenario: at(pt{c: 250, m: 1, plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1})},
					{Name: "late replies, retransmitted", Scenario: at(pt{c: 250, m: 1, plugin.DimReorderPct: 50, plugin.DimReorderDelayMS: 50})},
				}},
				// Requests, votes, pre-prepares and their authenticators go back
				// to the arena when their last holder drops them. The master
				// captures with commit votes and replies in flight; a MAC-mask
				// attack heals poisoned batches through retransmissions and
				// re-proposes prepared ones in view changes; crashes with state
				// loss free the whole log; dup and corrupt faults add a holder and
				// swap a payload for a copy; and a colluding slow primary cuts
				// single-request batches from the pending buffer.
				{Name: "shared payloads", W: windows(104250*time.Microsecond, 1500*time.Millisecond, 0), Cases: []targettest.Case[Report]{
					{Name: "unarmed, votes in flight at the capture", Scenario: largest,
						Exercised: func(_ core.Result, rep Report) bool { return rep.CorrectCompleted > 0 }},
					{Name: "MAC mask: healing, retransmissions, view changes", Scenario: at(pt{c: 30, m: 1, plugin.DimMACMask: int64(graycode.Decode(0xBBB))}),
						Exercised: func(_ core.Result, rep Report) bool {
							return rep.Retransmissions > 0 && rep.RejectedBatches > 0 && rep.ViewsInstalled > 0
						}},
					{Name: "crash with state loss", Scenario: at(pt{c: 30, m: 1, plugin.DimCrashIntervalMS: 60, plugin.DimCrashDownMS: 30, plugin.DimCrashLose: 1}),
						Exercised: func(_ core.Result, rep Report) bool { return rep.Crashes > 0 }},
					{Name: "dup and corrupt on one replica's links", Scenario: at(pt{c: 30, m: 1, plugin.DimDupMask: 0xFF, plugin.DimCorruptMask: 0x3C, plugin.DimNetFaultFrom: 1}),
						Exercised: func(_ core.Result, rep Report) bool { return rep.CorrectCompleted > 0 }},
					{Name: "slow primary colluding", Scenario: at(pt{c: 30, m: 1, plugin.DimSlowPrimary: 1, plugin.DimCollude: 1, plugin.DimSlowIntervalMS: 400}),
						Exercised: func(_ core.Result, rep Report) bool { return rep.MaliciousCompleted > 0 }},
				}},
			},
			// The largest population with every link duplicated runs far past
			// a 100,000-event budget in 600 ms; ten clients stay under it.
			Storm: targettest.Storm[Workload]{
				W:        windows(200*time.Millisecond, 600*time.Millisecond, 100_000),
				Scenario: at(pt{c: 250, m: 1, plugin.DimDupMask: 0xFF}),
				Error:    "step budget",
				Calm:     at(pt{c: 10, m: 1}),
			},
		},
		Target:     contractTarget,
		Window:     func(d *deployment) *core.Rig { return d.Rig },
		Key:        func(sc scenario.Scenario) masterKey { return populationOf(sc) },
		Space:      space,
		Structural: []string{c, m},
		InFlight: map[string]func(*deployment) bool{
			"owned replies": func(d *deployment) bool {
				before := completed(d.clients)
				d.Eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
				return completed(d.clients) > before
			},
			// A batch that executes within one latency of the capture was
			// committed by votes already in flight.
			"shared payloads": func(d *deployment) bool {
				executed := func() (n uint64) {
					for _, rp := range d.replicas {
						n += rp.Stats().BatchesExecuted
					}
					return n
				}
				before := executed()
				d.Eng.RunFor(d.w.Net.BaseLatency - time.Nanosecond)
				return executed() > before
			},
		},
		Parked: func(tb testing.TB, d *deployment) {
			for _, rp := range d.replicas {
				if !rp.Parked() {
					tb.Errorf("parked master: replica %d still holds a table Restore borrowed", rp.ID())
				}
			}
		},
		Pins: []targettest.Pin[Workload, *deployment]{
			// What the unarmed 1.5 s window of the largest default population,
			// 250 correct clients and one malicious, leases from the pool: 1.9
			// MB of 32 KB chunks. It was 1,260 (39 MB) while every message
			// stayed carved until the rewind and 480 (15 MB) while only replies
			// went back to the arena. Every message now goes back when its last
			// holder drops it — a delivery, the pending buffer, a log entry, a
			// forwarded-request record — and the log's holders let go at each
			// stable checkpoint, so the window carves about what two checkpoint
			// intervals hold at once: 42 chunks of pending-buffer trail
			// (proposed batches are prefixes of it, so it is never handed back
			// before the rewind), 12 of requests, 1 of replies, and one chunk
			// each for five slabs whose window objects all fit in one. It was 62
			// while a request was 56 bytes instead of 48: it stored its Op,
			// which Request.Op derives now. It was 57 while a capture left each
			// slab the partly carved chunk of its warm-up, and the window's
			// first objects filled that tail; the warm-up is heap memory now, so
			// a window leases a chunk for every slab it carves from. It was 67
			// while authenticators were tag vectors: 8 chunks of them, and 16 of
			// requests, which were 64 bytes before their authenticator became a
			// 16-byte verdict mask (mac.Auth). A change that moves it changed
			// what the window sends, what a message costs or which messages go
			// back; update the figure only with that explanation.
			{Name: "window lease", W: DefaultWorkload(), Scenario: largest, Window: 1500 * time.Millisecond, Lease: 60},
			// The same window runs exactly 716,664 callbacks and pays for them
			// with exactly 3,296 queue events, because a round's same-instant
			// deliveries ride one sim.Stream train (ROADMAP 1(a)'s Cost record
			// starts with these two fields). Executed moves only if the
			// protocol, the clients or the network send something else;
			// Dispatches moves if a change schedules anything for the delivery
			// instant between two sends and silently stops trains forming.
			// Update either figure only with that explanation.
			//
			// Resets and Requeues count, over warm-up and window, the one timer
			// PBFT re-arms through Engine.Reset: a client's retry timer, once
			// per request (pbft.Client.armRetry). Resets are the re-arms that
			// moved no queue node, Requeues the nodes they cost after all —
			// stale ones the dispatcher re-keyed plus moves to an earlier
			// instant. A client that completes a request leaves the pending
			// timer to the next request's Reset instead of stopping it, which
			// is what keeps the share re-armed in place above nine in ten
			// (Check); a Stop put back in front of the Reset shows here as a
			// count.
			{Name: "window dispatch counts", W: DefaultWorkload(), Scenario: largest, Window: 1500 * time.Millisecond,
				Executed: 716_664, Dispatches: 3_296, Resets: 159_716, Requeues: 9_297, SinceBuild: true,
				Check: func(tb testing.TB, d *deployment) {
					var arms uint64
					for _, c := range slices.Concat(d.clients, d.malicious) {
						st := c.Stats()
						arms += st.Issued + st.Retransmissions
					}
					if resets := d.Eng.Resets(); resets*10 < arms*9 {
						tb.Errorf("%d of %d retry-timer arms moved no queue node, want at least nine in ten", resets, arms)
					}
				}},
			// What one forked test costs the collector once its master and
			// its baseline exist: the Big MAC attack (all-backup corruption,
			// 30 correct clients, one malicious) over a 1.5 s window allocates
			// 21 objects, 952 bytes (970 under -race) — arming the fault plan,
			// the replicas' pre-prepare bookkeeping as the attack lands, the
			// run's report; the window's messages come from the pool. Lower
			// the pins when a change removes an allocation; raise them only
			// with the reason the new one cannot live in the deployment or its
			// arena. Cold runs (build + warm-up + capture) are not pinned: no
			// campaign takes that path per test.
			{Name: "Big MAC fork", W: fullWindow, Scenario: bigMAC, ForkAllocs: 21, ForkBytes: 1 << 10},
			// The same for a window of view changes: the view-0 primary's
			// outbound links cut (a oneway fault), 100 correct clients and one
			// malicious, the benchmark's 2M-event step budget. The replicas
			// install 8 views between them. A forked run allocates at most 14
			// objects (13, 512 bytes, when last measured): eight checkpoints
			// (heap messages nothing counts), the report's final views, arming
			// the fault plan and the baseline lookup. It was 2,198 objects,
			// 145,989 bytes while view changes, their prepared proofs, new views
			// and re-proposals were heap objects; they come from the arena's
			// view-change slabs and spans now, and the join, assembly and
			// install bookkeeping keeps replica tables. The same armed window
			// leases 25 chunks, 800 KB, under two thirds of a percent of
			// slab.WindowCeiling: 16 of agreement traffic and 9 of view-change
			// memory, one per slab or span and a second of proof prepares. It
			// was 26 while a request was 56 bytes instead of 48. It was 21 while
			// a capture left each slab the partly carved chunk of its warm-up,
			// where five slabs' window objects fitted; the warm-up is heap
			// memory now. It was 22 while a backup's pending-forwarded records
			// were carved from a slab of their own; they are values in the
			// replica's table now. The rules of the Big MAC pin apply to all
			// three figures.
			{Name: "view-change fork", W: windows(300*time.Millisecond, 1500*time.Millisecond, 2_000_000), Scenario: primaryMuted,
				Armed: true, Window: 1500 * time.Millisecond, Lease: 25, ForkAllocs: 14, ForkBytes: 1 << 10,
				Check: func(tb testing.TB, d *deployment) {
					var views uint64
					for _, rp := range d.replicas {
						views += rp.Stats().ViewsInstalled
					}
					if views != 8 {
						tb.Errorf("the replicas installed %d views, want 8: the pin would be of another window", views)
					}
				}},
		},
		Fuzz: windows(200*time.Millisecond, 1500*time.Millisecond, 100_000), // long enough for view changes
		FuzzSeeds: []targettest.FuzzSeed{
			// A MAC-mask attack whose view changes re-propose prepared batches
			// while retransmissions heal poisoned ones.
			{Point: pt{plugin.DimMACMask: int64(graycode.Decode(0xBBB)), m: 1}, Pops: []byte{2, 0, 0, 0, 5, 0}, Order: 0b101101},
		},
	}
}
