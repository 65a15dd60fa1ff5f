package raftsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// The replication path does constant work per message (ISSUE 17): the
// commit index is taken from the majority match index directly, and
// AppendEntries alias the leader's log. The tests here pin the two
// rewrites to what they replaced: the commit rule against the old loop,
// and the aliasing against the one thing a copy guaranteed — a message
// in flight never changes.

// advanceCommitLoop is the commit rule as it was before ISSUE 17, kept as
// the reference advanceCommit is tested against: walk from the last index
// down to the commit index, stop at the first entry of another term, and
// commit the first index a majority of matchIndex values reaches.
func advanceCommitLoop(n *Node) {
	last, _ := n.lastLog()
	for idx := last; idx > n.commit; idx-- {
		if n.log[idx-1].Term != n.term {
			break
		}
		count := 0
		for peer := 0; peer < n.cfg.N; peer++ {
			if n.matchIndex[peer] >= idx {
				count++
			}
		}
		if count >= n.cfg.N/2+1 {
			n.commit = idx
			n.applyCommitted()
			break
		}
	}
}

// TestAdvanceCommitMatchesReferenceLoop: on random leader states — logs
// whose terms are not monotone (a term re-run after state loss),
// matchIndex values past the log (a corrupted ack at the parent commit),
// any commit index, N from 1 to the supported maximum — the direct rule
// reaches the old loop's verdict.
func TestAdvanceCommitMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{1, 3, 5, 64} {
		cfg := DefaultConfig()
		cfg.N = size
		net := simnet.New(sim.New(1), simnet.Config{})
		commits := 0
		for trial := 0; trial < 4000; trial++ {
			const term = 4
			logLen := rng.Intn(24)
			log := make([]Entry, logLen)
			for i := range log {
				log[i] = Entry{Term: 1 + uint64(rng.Intn(term)), Client: simnet.Addr(size + i), Seq: 1}
			}
			// A leader's own appends: a run of current-term entries at the
			// end, of any length (none: it has appended nothing yet).
			for i := logLen - rng.Intn(logLen+1); i < logLen; i++ {
				log[i].Term = term
			}
			match := make([]uint64, size)
			for i := range match {
				match[i] = uint64(rng.Intn(logLen + 4))
			}
			commit := uint64(rng.Intn(logLen + 1))

			build := func() *Node {
				n, err := NewNode(0, cfg, net)
				if err != nil {
					t.Fatal(err)
				}
				n.term, n.log, n.commit, n.applied = term, slices.Clone(log), commit, commit
				copy(n.matchIndex, match)
				// What becomeLeader fixes and a leader's appends preserve.
				n.termStart = uint64(logLen) + 1
				for n.termStart > 1 && n.log[n.termStart-2].Term == term {
					n.termStart--
				}
				return n
			}
			want, got := build(), build()
			advanceCommitLoop(want)
			got.advanceCommit()
			if got.commit != want.commit || got.applied != want.applied || got.stats != want.stats {
				t.Fatalf("N=%d term %d log %v match %v commit %d: advanceCommit -> commit %d applied %d, the loop -> commit %d applied %d",
					size, term, log, match, commit, got.commit, got.applied, want.commit, want.applied)
			}
			if want.commit > commit {
				commits++
			}
		}
		if commits < 100 {
			t.Errorf("N=%d: only %d of 4000 random states advanced the commit index; the generator lost its teeth", size, commits)
		}
	}
}

// tappedLeader is a three-node cluster with one real node, the leader of
// term 1, and taps in place of its two peers: every AppendEntries the
// leader sends is held by the network until the test runs the engine, and
// then lands in delivered.
type tappedLeader struct {
	eng       *sim.Engine
	lead      *Node
	delivered []*AppendEntries
}

func newTappedLeader(t *testing.T) *tappedLeader {
	t.Helper()
	cfg := DefaultConfig()
	cfg.N = 3
	c := &tappedLeader{eng: sim.New(1)}
	net := simnet.New(c.eng, simnet.Config{BaseLatency: 500 * time.Microsecond})
	lead, err := NewNode(0, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	c.lead = lead
	for peer := simnet.Addr(1); peer <= 2; peer++ {
		net.Handle(peer, func(_ simnet.Addr, payload any) {
			if ae, ok := payload.(*AppendEntries); ok {
				c.delivered = append(c.delivered, ae)
			}
		})
	}
	lead.onElectionTimeout()
	lead.onRequestVoteReply(&RequestVoteReply{Term: 1, From: 1, Granted: true})
	if !lead.IsLeader() {
		t.Fatal("node 0 did not take office")
	}
	return c
}

// request has the leader append and replicate one client request.
func (c *tappedLeader) request(client int) {
	c.lead.onClientRequest(&ClientRequest{Client: simnet.Addr(client), Seq: 1})
}

// checkDelivered runs the network and compares what arrives with sent,
// the leader's log as it was when the messages left.
func (c *tappedLeader) checkDelivered(t *testing.T, sent []Entry) {
	t.Helper()
	c.eng.RunFor(time.Millisecond)
	carried := 0
	for _, ae := range c.delivered {
		if ae.Leader != 0 {
			continue
		}
		carried += len(ae.Entries)
		if want := sent[ae.PrevLogIndex : int(ae.PrevLogIndex)+len(ae.Entries)]; !slices.Equal(ae.Entries, want) {
			t.Errorf("AppendEntries after index %d arrived carrying %v, was sent carrying %v", ae.PrevLogIndex, ae.Entries, want)
		}
	}
	if carried == 0 {
		t.Fatal("no entries were in flight; the test checked nothing")
	}
}

// usurp delivers the first AppendEntries of the next term's leader, whose
// log shares only the first keep entries with the node's: everything
// after is replaced, slot for slot, by entries of that term.
func usurp(n *Node, keep uint64, entries int) {
	next := n.stats.TermsSeen + 1
	ae := &AppendEntries{Term: next, Leader: int32((n.id + 1) % n.cfg.N), PrevLogIndex: keep}
	if keep > 0 {
		ae.PrevLogTerm = n.log[keep-1].Term
	}
	for i := 0; i < entries; i++ {
		ae.Entries = append(ae.Entries, Entry{Term: next, Client: 99, Seq: uint64(i + 1)})
	}
	n.onAppendEntries(ae)
}

// TestInFlightEntriesSurviveTruncation: a leader replicates four
// requests, and before any of those messages arrives it is deposed and
// its log rewritten from index 2 on. The messages alias the log they were
// cut from, so this is the case copy-on-truncate exists for: they must
// arrive as sent.
func TestInFlightEntriesSurviveTruncation(t *testing.T) {
	c := newTappedLeader(t)
	for client := 10; client < 14; client++ {
		c.request(client)
	}
	sent := slices.Clone(c.lead.log)
	usurp(c.lead, 1, 6)
	if c.lead.IsLeader() || c.lead.LogLen() != 7 || c.lead.log[1].Term != 2 {
		t.Fatalf("the usurper did not rewrite the log: leader=%v log=%v", c.lead.IsLeader(), c.lead.log)
	}
	c.checkDelivered(t, sent)
}

// TestInFlightEntriesSurviveStateLoss: the same leader crashes with its
// durable state lost, restarts blank and is filled from index 1 by the
// next leader while its own last messages are still in flight.
func TestInFlightEntriesSurviveStateLoss(t *testing.T) {
	c := newTappedLeader(t)
	for client := 10; client < 14; client++ {
		c.request(client)
	}
	sent := slices.Clone(c.lead.log)
	c.lead.Crash(false)
	c.lead.Restart()
	usurp(c.lead, 0, 6)
	if c.lead.LogLen() != 6 || c.lead.log[0].Term != 2 {
		t.Fatalf("the restarted node was not refilled: log=%v", c.lead.log)
	}
	c.checkDelivered(t, sent)
}

// TestTruncationCopiesOncePerEpoch: two leaders of one term — what state
// loss makes possible — take turns rewriting a follower's log from index
// 50. A follower that never led has handed no index out, so every
// truncation is the in-place O(1) operation it always was: no allocation,
// same backing array. One that led first copies on the first truncation
// below what it sent, and on no other.
func TestTruncationCopiesOncePerEpoch(t *testing.T) {
	// storm returns one strike of the storm on n: the next rival's ten
	// entries after index 49, and the reply drained. The message is reused,
	// so a strike allocates only what the node does.
	storm := func(n *Node) func() {
		ae := &AppendEntries{Leader: 1, PrevLogIndex: 49, Entries: make([]Entry, 10)}
		rival := uint64(5)
		return func() {
			for i := range ae.Entries {
				ae.Entries[i] = Entry{Term: rival, Client: 99, Seq: uint64(i)}
			}
			rival ^= 1
			ae.Term, ae.PrevLogTerm = n.term, n.log[48].Term
			n.onAppendEntries(ae)
			n.eng.RunFor(time.Millisecond)
		}
	}

	t.Run("never led", func(t *testing.T) {
		n := newTappedLeader(t).lead
		usurp(n, 0, 100) // deposed before it sent a single entry
		strike := storm(n)
		for i := 0; i < 4; i++ {
			strike() // warm the engine's and the arena's free lists
		}
		array := unsafe.SliceData(n.log)
		if allocs := testing.AllocsPerRun(200, strike); allocs > 0 {
			t.Errorf("a truncation on a follower that never led allocates %.1f objects; want 0", allocs)
		}
		if unsafe.SliceData(n.log) != array || n.shared != 0 {
			t.Errorf("the log moved (shared=%d); truncation above the high-water mark must stay in place", n.shared)
		}
		if n.LogLen() != 59 || n.Stats().AppendsRejected != 0 {
			t.Fatalf("the storm left a %d-entry log and %d rejections, want 59 and 0", n.LogLen(), n.Stats().AppendsRejected)
		}
	})

	t.Run("led once", func(t *testing.T) {
		c := newTappedLeader(t)
		n := c.lead
		for client := 10; client < 110; client++ {
			c.request(client)
		}
		sent := slices.Clone(n.log)
		before := unsafe.SliceData(n.log)
		n.term = 2 // the rivals' term
		strike := storm(n)
		strike()
		after := unsafe.SliceData(n.log)
		if after == before || n.shared != 0 {
			t.Fatalf("the first truncation below the high-water mark did not move the log (shared=%d)", n.shared)
		}
		for i := 0; i < 50; i++ {
			strike()
		}
		if unsafe.SliceData(n.log) != after {
			t.Error("later truncations of the same epoch copied again")
		}
		c.checkDelivered(t, sent)
	})
}

// allFaultsSpace is the hyperspace `avd -target raft -faults
// crash,skew,oneway,corrupt,dup` explores.
func allFaultsSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := core.Space(NewClientsPlugin(), NewLeaderFlapPlugin(), NewCrashRestartPlugin(),
		NewClockSkewPlugin(), NewOneWayPlugin(), NewNetFaultsPlugin())
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestCorruptedAckIsRefused is the regression test for a panic CI's own
// raft crash-restart smoke hit on its fifth test and scored as a
// zero-impact row: a corrupted AppendEntries (PrevLogIndex^1) makes an
// honest follower ack one index past the leader's log, the leader adopted
// the claim, and its next heartbeat indexed the log out of range. The
// leader must refuse such an ack, and the test must come back with a
// verdict — the same one cold and forked.
func TestCorruptedAckIsRefused(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	w.StepBudget = 300_000
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := allFaultsSpace(t).New(map[string]int64{
		DimClients: 10, DimFlapIntervalMS: 500, DimFlapDownMS: 200,
		plugin.DimCrashIntervalMS: 300, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1,
		plugin.DimSkewNode: 1, plugin.DimSkewPermille: 100,
		plugin.DimOneWayVictim: 2, plugin.DimOneWayDir: 1,
		plugin.DimCorruptMask: 209, plugin.DimDupMask: 33, plugin.DimNetFaultFrom: 1,
	})
	cold, coldRep := r.RunReport(sc)
	if cold.Errored() {
		t.Fatalf("the corrupted exchange still costs the test its verdict: %+v", cold)
	}
	fork, forkRep := r.RunForkReport(sc)
	if !reflect.DeepEqual(cold, fork) || coldRep != forkRep {
		t.Errorf("verdict differs between cold and fork:\ncold: %+v %+v\nfork: %+v %+v", cold, coldRep, fork, forkRep)
	}
	var refused uint64
	r.EachMaster(func(_ int64, d *deployment) {
		for _, n := range d.nodes {
			refused += n.Stats().AcksRefused
		}
	})
	if refused == 0 {
		t.Error("no ack was refused: the scenario no longer reaches the corrupted exchange this test pins")
	}
}

// TestInFlightEntriesSurviveForks: the same two strikes end to end, on a
// deployment captured while AppendEntries are in flight, with the pool's
// poison hook on and another master's forks recycling the pooled chunks
// and log buffers in between. The leader is struck right after a restore,
// when the messages in flight are the captured ones (they land again
// after every restore, so nothing may ever write to what they alias), or
// 20 ms into the window, when they alias the restored copy. Whatever a
// message carried when it left is what it carries when it lands.
func TestInFlightEntriesSurviveForks(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	w := DefaultWorkload()
	w.Warmup = 0 // warmed below, once the taps are in
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDeployment(10)

	// An AppendEntries is one shared object from Send to deliver, so its
	// address keys what it carried when it left.
	sent := make(map[*AppendEntries]uint64)
	inFlight, landed := 0, 0
	d.net.AddInterceptor(simnet.InterceptorFunc(func(m *simnet.Message) simnet.Verdict {
		if ae, ok := m.Payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
			sent[ae] = entriesDigest(ae.Entries)
			inFlight++
		}
		return simnet.VerdictDeliver
	}))
	for _, n := range d.nodes {
		d.net.Handle(simnet.Addr(n.ID()), func(from simnet.Addr, payload any) {
			if ae, ok := payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
				inFlight--
				landed++
				if got := entriesDigest(ae.Entries); got != sent[ae] {
					t.Errorf("t=%v: AppendEntries %d->%d after index %d changed in flight", d.eng.Now(), ae.Leader, n.ID(), ae.PrevLogIndex)
				}
			}
			n.onMessage(from, payload)
		})
	}
	// runToSend advances the deployment to an instant at which the leader
	// has entries in flight, and returns it.
	runToSend := func(warm time.Duration) *Node {
		d.eng.RunFor(warm)
		for step := 0; inFlight == 0; step++ {
			if step == 100 {
				t.Fatal("no AppendEntries in flight; the test would check nothing")
			}
			d.eng.RunFor(100 * time.Microsecond)
		}
		return d.nodes[currentLeader(d.nodes)]
	}
	runToSend(500 * time.Millisecond)
	d.Capture()
	captured := inFlight

	strikes := []struct {
		name string
		hit  func(n *Node)
	}{
		{"truncation", func(n *Node) { usurp(n, n.commit/2, n.LogLen()) }},
		{"state loss", func(n *Node) {
			refill := n.LogLen() + 10
			n.Crash(false)
			n.Restart()
			usurp(n, 0, refill)
		}},
	}
	for round := 0; round < 2; round++ {
		for _, strike := range strikes {
			for _, after := range []time.Duration{0, 20 * time.Millisecond} {
				before := landed
				d.Restore()
				inFlight = captured
				strike.hit(runToSend(after))
				d.eng.RunFor(5 * time.Millisecond)
				if landed-before < captured {
					t.Fatalf("%s %v into the fork: %d AppendEntries carrying entries landed, fewer than the %d captured in flight", strike.name, after, landed-before, captured)
				}
				r.RunFork(testSpace(t).New(map[string]int64{DimClients: 5, DimFlapIntervalMS: 200, DimFlapDownMS: 100}))
			}
		}
	}
}

func entriesDigest(entries []Entry) uint64 {
	h := uint64(len(entries))
	for _, e := range entries {
		h = h*1099511628211 ^ EntryDigest(e)
	}
	return h
}

// stormLeaseChunks is what the window of the leader-flap storm below
// leases from the pool, in 32 KB chunks. Every message is a fixed-size
// object and every one with a single recipient goes back to its slab when
// its delivery has run, so the window carves what it has in flight at
// once plus the broadcast RequestVotes, and all of that but one chunk fits
// in the chunks the capture kept: 1 chunk, against 100 (3,276,752 bytes)
// while every message stayed carved until the rewind and 683 (22,375,832
// bytes) while AppendEntries copied their entries. A change that moves it
// changed what the window sends, what a message costs or which messages
// go back; update the figure only with that explanation.
const stormLeaseChunks = 1

// TestStormWindowLease is the exact guard on window memory (CI's
// perf-smoke runs it by name): the benchmark's storm probe — 50 clients,
// the leader isolated for 200 ms every 300 ms, a 1.5 s window — leases
// exactly stormLeaseChunks.
func TestStormWindowLease(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDeployment(50)
	d.Capture()
	d.Restore()
	d.Arm(testSpace(t).New(map[string]int64{DimClients: 50, DimFlapIntervalMS: 300, DimFlapDownMS: 200}), true)
	d.eng.RunFor(w.Measure)
	if got := d.mem.Held() - d.mem.Owned(); got != stormLeaseChunks {
		t.Errorf("the storm window leased %d chunks (%d KB), want exactly %d", got, got*32, stormLeaseChunks)
	}
}

// faultStormLeaseChunks is what the window of TestStormHungSameWithSplitTrains'
// corrupt+dup ack storm leases when it runs to the 2M-event step budget
// of a default campaign, in 32 KB chunks: 15 MB. It was 1,704 (53 MB)
// while a duplicated delivery un-owned its payload and a corrupted one
// was a heap copy that left its original carved. A duplicate now adds a
// holder, and a single-recipient message, which its delivery holds alone,
// is garbled in place and still goes back when delivered, so what is left
// is the storm's backlog: its queue grows faster than it drains, and at
// the budget some 290,000 deliveries are still queued, each holding its
// append or its ack. A change that moves it changed what
// the window sends, what a message costs or which messages go back;
// update the figure only with that explanation.
const faultStormLeaseChunks = 480

// TestFaultStormWindowLease is the exact guard on window memory under
// link faults (CI's perf-smoke runs it by name).
func TestFaultStormWindowLease(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDeployment(10)
	d.Capture()
	d.Restore()
	d.Arm(allFaultsSpace(t).New(map[string]int64{
		DimClients: 10, plugin.DimCorruptMask: 0xA5, plugin.DimDupMask: 0x3C,
	}), true)
	d.eng.SetStepBudget(2_000_000)
	d.eng.RunFor(w.Measure)
	if !d.eng.BudgetExceeded() {
		t.Fatal("the storm did not run to the step budget: the test would pin a smaller window")
	}
	if got := d.mem.Held() - d.mem.Owned(); got != faultStormLeaseChunks {
		t.Errorf("the storm window leased %d chunks (%d KB), want exactly %d", got, got*32, faultStormLeaseChunks)
	}
}

// TestWindowDispatchCounts is the exact guard on queue work, the twin of
// cluster's (CI's perf-smoke runs both by name): the armed window of the
// golden leader-flap pair and of the storm probe above run exactly this
// many callbacks from exactly this many queue events. A node's fan-out
// to its peers and the replies that come back at one instant each ride
// one sim.Stream train; election and heartbeat timers do not, so the
// ratio is smaller than PBFT's. Executed moves only if the window sends
// or arms something else; Dispatches moves if a change schedules
// anything for the delivery instant between two sends and silently stops
// trains forming. Update either figure only with that explanation.
//
// Resets and Requeues (fields three and four of ROADMAP 1(a)'s Cost
// record) pin the lazy path of the election, heartbeat and client retry
// timers: every AppendEntries received and every client request sent
// re-arms one through Engine.Reset, and Resets counts the calls that moved
// no queue node, Requeues the nodes the re-arms cost after all — stale ones
// the dispatcher re-keyed plus moves to an earlier instant. Resets falling
// or Requeues climbing means timers stopped being re-armed in place.
func TestWindowDispatchCounts(t *testing.T) {
	golden, goldenPoint := goldenWorkload()
	storm := DefaultWorkload()
	storm.Measure = 1500 * time.Millisecond
	for _, tc := range []struct {
		name                 string
		w                    Workload
		sc                   scenario.Scenario
		executed, dispatches uint64
		resets, requeues     uint64
	}{
		{"golden", golden, goldenSpace(t).New(goldenPoint), 658, 262, 307, 48},
		{"storm", storm, testSpace(t).New(map[string]int64{DimClients: 50, DimFlapIntervalMS: 300, DimFlapDownMS: 200}), 76_416, 1_080, 37_816, 413},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			d := r.newDeployment(tc.sc.GetOr(DimClients, 0))
			d.Capture()
			d.Restore()
			d.Arm(tc.sc, true)
			executed, dispatches := d.eng.Executed(), d.eng.Dispatches()
			resets, requeues := d.eng.Resets(), d.eng.Requeues()
			d.eng.RunFor(tc.w.Measure)
			executed, dispatches = d.eng.Executed()-executed, d.eng.Dispatches()-dispatches
			if executed != tc.executed || dispatches != tc.dispatches {
				t.Errorf("the window ran %d callbacks from %d queue events, want exactly %d from %d",
					executed, dispatches, tc.executed, tc.dispatches)
			}
			resets, requeues = d.eng.Resets()-resets, d.eng.Requeues()-requeues
			if resets != tc.resets || requeues != tc.requeues {
				t.Errorf("the window re-armed %d timers in place and re-queued %d, want exactly %d and %d",
					resets, requeues, tc.resets, tc.requeues)
			}
		})
	}
}

// TestStormHungSameWithSplitTrains: a corrupt+dup ack storm runs into
// CI's 300,000-event step budget in the middle of a train. The verdict
// and the engine's callback count must be what they are when every
// delivery is a queue event of its own (sim.SetSplitTrains): a delivery
// that rides a train still costs the budget one step. And what they are
// when every timer re-arm is a Stop and a Schedule (sim.SetEagerResets):
// a stale node re-queued on the way costs it none.
func TestStormHungSameWithSplitTrains(t *testing.T) {
	run := func() (core.Result, uint64) {
		w := DefaultWorkload()
		w.Measure = 800 * time.Millisecond
		w.StepBudget = 300_000
		r, err := NewRunner(w)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RunFork(allFaultsSpace(t).New(map[string]int64{
			DimClients: 10, plugin.DimCorruptMask: 0xA5, plugin.DimDupMask: 0x3C,
		}))
		var executed uint64
		r.EachMaster(func(_ int64, d *deployment) { executed = d.eng.Executed() })
		return res, executed
	}
	shipped, shippedExecuted := run()
	if !shipped.Hung {
		t.Fatalf("the storm did not exhaust the step budget: %+v", shipped)
	}
	for name, set := range map[string]func(bool){"split trains": sim.SetSplitTrains, "eager resets": sim.SetEagerResets} {
		set(true)
		hooked, hookedExecuted := run()
		set(false)
		if !reflect.DeepEqual(hooked, shipped) || hookedExecuted != shippedExecuted {
			t.Errorf("verdict differs with %s:\nhooked:  %d callbacks, %+v\nshipped: %d callbacks, %+v",
				name, hookedExecuted, hooked, shippedExecuted, shipped)
		}
	}
}
