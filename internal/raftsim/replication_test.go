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
	to        [3]int // AppendEntries delivered, by peer
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
				c.to[peer]++
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

// request has the leader append one client request.
func (c *tappedLeader) request(client int) {
	c.lead.onClientRequest(&ClientRequest{Client: simnet.Addr(client), Seq: 1})
}

// heartbeat has the leader send each tap what it holds: the taps never
// ack, so they stay in probe and the entries leave with the heartbeat.
func (c *tappedLeader) heartbeat() { c.lead.onHeartbeat() }

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

// TestDuplicatedRejectResendsOnce: a dup fault delivers a reject twice.
// The first moves nextIndex and resends; the copy finds nothing left to
// do. So a duplicated reject costs one resend, where resending on every
// reject made each copy a resend chain of its own. A conflict moves the
// follower to probe and the copy rejects an index no longer probed; a
// reject of an index the follower acked moves it to replicate, where the
// copy only rewinds.
func TestDuplicatedRejectResendsOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reject func(c *tappedLeader) *AppendEntriesReply
	}{
		{"replicate, an append garbled in flight", func(c *tappedLeader) *AppendEntriesReply {
			// Peer 1 acks the first heartbeat and replicates; entry 1 goes
			// to it at once, and its PrevLogIndex arrives as 1, past the
			// follower's empty log.
			c.lead.onAppendEntriesReply(&AppendEntriesReply{Term: 1, From: 1, Success: true})
			c.request(10)
			return &AppendEntriesReply{Term: 1, From: 1, PrevLogIndex: 1}
		}},
		{"probe, a follower short of the leader's log", func(c *tappedLeader) *AppendEntriesReply {
			for client := 10; client < 14; client++ {
				c.request(client)
			}
			c.lead.nextIndex[1] = 5 // as taking office with these four entries leaves it
			return &AppendEntriesReply{Term: 1, From: 1, PrevLogIndex: 4}
		}},
		{"probe, an ack whose verdict flipped", func(c *tappedLeader) *AppendEntriesReply {
			for client := 10; client < 14; client++ {
				c.request(client)
			}
			return &AppendEntriesReply{Term: 1, From: 1, LastLogIndex: 4} // the probe after index 0, accepted
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTappedLeader(t)
			rej := tc.reject(c)
			c.eng.RunFor(time.Millisecond)
			before := c.to[1]
			c.lead.onAppendEntriesReply(rej)
			c.lead.onAppendEntriesReply(rej)
			c.eng.RunFor(time.Millisecond)
			if sent, next := c.to[1]-before, c.lead.nextIndex[1]; sent != 1 || next != 1 {
				t.Errorf("a duplicated reject sent %d appends and left nextIndex at %d; want one resend, from index 1", sent, next)
			}
		})
	}
}

// TestAppendsPerWindow pins the AppendEntries a fault-free 50-client
// window of the default workload (2 s) sends, and the entries they carry:
// 8,200 appends, about one per follower per round trip, carrying 186,266
// entries, each about once per follower. While every client request sent
// every follower its whole unacknowledged suffix it was 200,320 appends
// carrying 5,108,000 entries. A change that moves either figure changed
// how the leader replicates; update them only with that explanation.
func TestAppendsPerWindow(t *testing.T) {
	w := DefaultWorkload()
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDeployment(50)
	d.Capture()
	d.Restore()
	var appends, entries int
	d.Net.AddInterceptor(simnet.InterceptorFunc(func(m *simnet.Message) simnet.Verdict {
		if ae, ok := m.Payload.(*AppendEntries); ok {
			appends++
			entries += len(ae.Entries)
		}
		return simnet.VerdictDeliver
	}))
	d.Eng.RunFor(w.Measure)
	if appends != 8_200 || entries != 186_266 {
		t.Errorf("a fault-free 50-client window sent %d appends carrying %d entries, want exactly 8,200 carrying 186,266", appends, entries)
	}
}

// TestFollowerCommitsOnlyVerifiedEntries: a follower commits no further
// than the last index an append verified (Raft Figure 2, "index of last
// new entry"). Here its log holds a tail of a deposed leader's term past
// the entry the new leader's empty append checks, and the new leader has
// committed further: the tail is not the leader's, so none of it commits.
func TestFollowerCommitsOnlyVerifiedEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 3
	n, err := NewNode(1, cfg, simnet.New(sim.New(1), simnet.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	n.term = 2
	n.log = []Entry{{Term: 1, Client: 9, Seq: 1}, {Term: 1, Client: 9, Seq: 2}, {Term: 1, Client: 9, Seq: 3}, {Term: 1, Client: 9, Seq: 4}}
	n.onAppendEntries(&AppendEntries{Term: 3, Leader: 0, PrevLogIndex: 2, PrevLogTerm: 1, LeaderCommit: 4})
	if n.Commit() != 2 {
		t.Errorf("commit index %d after an append that verified index 2, want 2", n.Commit())
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

// TestInFlightEntriesSurviveTruncation: a leader sends four requests with
// a heartbeat, and before any of those messages arrives it is deposed and
// its log rewritten from index 2 on. The messages alias the log they were
// cut from, so this is the case copy-on-truncate exists for: they must
// arrive as sent.
func TestInFlightEntriesSurviveTruncation(t *testing.T) {
	c := newTappedLeader(t)
	for client := 10; client < 14; client++ {
		c.request(client)
	}
	c.heartbeat()
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
	c.heartbeat()
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
		// The strikes are a window: their replies carve from leased chunks.
		n.mem.mem.Capture()
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
		c.heartbeat()
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

// TestParkStocksOneRetiredArray: however many times a window truncates a
// node's log below the aliasing mark, Park stocks the log and one retired
// array and leaves the rest to the collector, so a truncation storm does
// not grow the Runner's scratch stock for the life of the process.
func TestParkStocksOneRetiredArray(t *testing.T) {
	n := newTappedLeader(t).lead
	for client := 10; client < 20; client++ {
		n.onClientRequest(&ClientRequest{Client: simnet.Addr(client), Seq: 1})
	}
	pool := n.mem.pool
	n.log = append(slab.Borrow[Entry](pool), n.log...) // as Restore leaves it
	for range 3 {
		n.shared = uint64(len(n.log)) // as if the node had just sent it all
		n.truncate(n.shared - 1)
	}
	if len(n.retired) != 3 {
		t.Fatalf("three truncations below the mark retired %d arrays", len(n.retired))
	}
	n.Park()
	for i, want := range []bool{true, true, false} {
		if got := slab.Borrow[Entry](pool) != nil; got != want {
			t.Fatalf("Borrow %d after Park got a stocked buffer: %v, want %v (the log and one retired array)", i, got, want)
		}
	}
}

// allFaultsSpace is the hyperspace `avd -target raft -faults
// crash,skew,oneway,corrupt,dup` explores.
func allFaultsSpace(tb testing.TB) *scenario.Space {
	tb.Helper()
	space, err := core.Space(NewClientsPlugin(), NewLeaderFlapPlugin(), plugin.NewCrashRestart(),
		plugin.NewClockSkew(5), plugin.NewOneWay(5), plugin.NewNetFaults(5, true, true))
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// TestCorruptedAckIsRefused is the regression test for a panic CI's own
// raft crash-restart smoke hit on its fifth test and scored as a
// zero-impact row: a corrupted AppendEntries (PrevLogIndex^1) makes an
// honest follower ack one index past the leader's log, the leader adopted
// the claim, and its next heartbeat indexed the log out of range. The
// leader must refuse such an ack, and the test must come back with a
// verdict — the same one cold and forked. The follower's log must hold a
// stale entry whose term the garbled PrevLogTerm matches, which takes
// crashes with state loss and leader flaps; the schedule here refuses
// five acks (the one the test had before flow control refuses none).
func TestCorruptedAckIsRefused(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 1500 * time.Millisecond
	w.StepBudget = 300_000
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := allFaultsSpace(t).New(map[string]int64{
		DimClients: 15, DimFlapIntervalMS: 300, DimFlapDownMS: 175,
		plugin.DimCrashIntervalMS: 550, plugin.DimCrashDownMS: 125, plugin.DimCrashLose: 1,
		plugin.DimOneWayVictim: 1, plugin.DimCorruptMask: 196, plugin.DimDupMask: 7,
	})
	cold, coldRep := r.RunReport(sc) // the first run of the fresh runner builds the master
	if cold.Errored() {
		t.Fatalf("the corrupted exchange still costs the test its verdict: %+v", cold)
	}
	fork, forkRep := r.RunReport(sc) // the second forks it
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
	d.Net.AddInterceptor(simnet.InterceptorFunc(func(m *simnet.Message) simnet.Verdict {
		if ae, ok := m.Payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
			sent[ae] = entriesDigest(ae.Entries)
			inFlight++
		}
		return simnet.VerdictDeliver
	}))
	for _, n := range d.nodes {
		d.Net.Handle(simnet.Addr(n.ID()), func(from simnet.Addr, payload any) {
			if ae, ok := payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
				inFlight--
				landed++
				if got := entriesDigest(ae.Entries); got != sent[ae] {
					t.Errorf("t=%v: AppendEntries %d->%d after index %d changed in flight", d.Eng.Now(), ae.Leader, n.ID(), ae.PrevLogIndex)
				}
			}
			n.onMessage(from, payload)
		})
	}
	// runToSend advances the deployment to an instant at which the leader
	// has entries in flight, and returns it.
	runToSend := func(warm time.Duration) *Node {
		d.Eng.RunFor(warm)
		for step := 0; inFlight == 0; step++ {
			if step == 100 {
				t.Fatal("no AppendEntries in flight; the test would check nothing")
			}
			d.Eng.RunFor(100 * time.Microsecond)
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
				d.Eng.RunFor(5 * time.Millisecond)
				if landed-before < captured {
					t.Fatalf("%s %v into the fork: %d AppendEntries carrying entries landed, fewer than the %d captured in flight", strike.name, after, landed-before, captured)
				}
				r.Run(testSpace(t).New(map[string]int64{DimClients: 5, DimFlapIntervalMS: 200, DimFlapDownMS: 100}))
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
