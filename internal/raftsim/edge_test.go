package raftsim

import (
	"testing"
	"time"

	"avd/internal/oracle"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// edgeCluster builds an N-node cluster whose every node feeds one oracle
// model, ready to Start.
type edgeCluster struct {
	eng    *sim.Engine
	net    *simnet.Network
	nodes  []*Node
	oracle *oracle.Model
}

func newEdgeCluster(t *testing.T, cfg Config, seed int64) *edgeCluster {
	t.Helper()
	c := &edgeCluster{eng: sim.New(seed), oracle: oracle.New(new(slab.Pool), "raft")}
	c.net = simnet.New(c.eng, simnet.Config{BaseLatency: 500 * time.Microsecond})
	for i := 0; i < cfg.N; i++ {
		id := i
		n, err := NewNode(i, cfg, c.net,
			WithLeadObserver(func(term uint64) {
				c.oracle.Observe(oracle.Event{Kind: oracle.EventLeader, Node: id, Term: term})
			}),
			WithApplyObserver(func(index uint64, e Entry) {
				c.oracle.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: index, Term: e.Term, Digest: EntryDigest(e)})
			}))
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

func (c *edgeCluster) start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

func (c *edgeCluster) violations(t *testing.T) []oracle.Violation {
	t.Helper()
	v, _ := c.oracle.Finish()
	return v
}

// isolate severs every link between node id and its peers (both
// directions).
func (c *edgeCluster) isolate(id int) {
	for _, n := range c.nodes {
		if n.ID() != id {
			c.net.BlockPair(simnet.Addr(id), simnet.Addr(n.ID()))
		}
	}
}

func (c *edgeCluster) heal(id int) {
	for _, n := range c.nodes {
		if n.ID() != id {
			c.net.UnblockPair(simnet.Addr(id), simnet.Addr(n.ID()))
		}
	}
}

// TestEdgeCases covers the table of protocol corners that a healthy
// 5-node steady-state run never visits.
func TestEdgeCases(t *testing.T) {
	t.Run("single-node cluster", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.N = 1
		if err := cfg.Validate(); err != nil {
			t.Fatalf("single-node config invalid: %v", err)
		}
		c := newEdgeCluster(t, cfg, 11)
		var completions uint64
		client, err := NewClient(simnet.Addr(1), cfg, DefaultClientConfig(), c.net,
			WithOnComplete(func(uint64, time.Duration) { completions++ }))
		if err != nil {
			t.Fatal(err)
		}
		c.start()
		client.Start()
		c.eng.RunFor(2 * time.Second)

		n := c.nodes[0]
		if !n.IsLeader() {
			t.Fatal("single node never elected itself")
		}
		if n.Stats().ElectionsStarted != 1 {
			t.Fatalf("single node started %d elections, want exactly 1", n.Stats().ElectionsStarted)
		}
		if completions == 0 {
			t.Fatal("single-node cluster completed no client requests")
		}
		if n.Commit() == 0 {
			t.Fatal("single-node cluster committed nothing")
		}
		if v := c.violations(t); len(v) != 0 {
			t.Fatalf("single-node run violated invariants: %v", v)
		}
	})

	t.Run("split vote with immediate re-election", func(t *testing.T) {
		cfg := DefaultConfig()
		// Near-identical election timeouts: all five nodes become
		// candidates within a millisecond of each other, splitting the
		// term-1 vote; the randomized re-draw must still converge. The
		// (window, seed) pair is chosen so the deterministic simulation
		// splits several consecutive rounds before electing a leader.
		cfg.ElectionTimeoutMin = 150 * time.Millisecond
		cfg.ElectionTimeoutMax = 151 * time.Millisecond
		c := newEdgeCluster(t, cfg, 2)
		c.start()
		c.eng.RunFor(3 * time.Second)

		var maxTerm, elections uint64
		leaders := 0
		for _, n := range c.nodes {
			st := n.Stats()
			elections += st.ElectionsStarted
			if st.TermsSeen > maxTerm {
				maxTerm = st.TermsSeen
			}
			if n.IsLeader() {
				leaders++
			}
		}
		if maxTerm < 2 {
			t.Fatalf("no split vote occurred (max term %d); tighten the timeout window", maxTerm)
		}
		if elections < uint64(cfg.N) {
			t.Fatalf("only %d elections started; expected a split first round", elections)
		}
		if leaders != 1 {
			t.Fatalf("cluster did not converge after split votes: %d leaders", leaders)
		}
		if v := c.violations(t); len(v) != 0 {
			t.Fatalf("split-vote run violated invariants: %v", v)
		}
	})

	t.Run("follower with divergent log rejoining", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.N = 3
		c := newEdgeCluster(t, cfg, 21)
		c.start()
		c.eng.RunFor(time.Second)
		old := currentLeader(c.nodes)
		if old < 0 {
			t.Fatal("no initial leader")
		}

		// Isolate the leader, then keep feeding it client requests: it
		// still believes it leads, so its log grows a suffix that can
		// never commit.
		c.isolate(old)
		fake := simnet.Addr(100)
		for seq := uint64(1); seq <= 5; seq++ {
			c.net.Send(fake, simnet.Addr(old), &ClientRequest{Client: fake, Seq: seq})
			c.eng.RunFor(10 * time.Millisecond)
		}
		divergent := c.nodes[old].LogLen()
		if divergent < 5 {
			t.Fatalf("isolated leader appended %d entries, want the divergent suffix", divergent)
		}

		// The majority elects a successor and commits different entries
		// at those same indices.
		c.eng.RunFor(time.Second)
		succ := currentLeader(c.nodes)
		if succ < 0 || succ == old {
			t.Fatalf("majority did not elect a successor (leader %d)", succ)
		}
		fake2 := simnet.Addr(101)
		for seq := uint64(1); seq <= 8; seq++ {
			c.net.Send(fake2, simnet.Addr(succ), &ClientRequest{Client: fake2, Seq: seq})
			c.eng.RunFor(10 * time.Millisecond)
		}
		committed := c.nodes[succ].Commit()
		if committed == 0 {
			t.Fatal("successor committed nothing")
		}

		// Rejoin: the old leader steps down, truncates its divergent
		// suffix, and catches up to the successor's log.
		c.heal(old)
		c.eng.RunFor(time.Second)
		rejoined := c.nodes[old]
		if rejoined.IsLeader() && c.nodes[succ].Term() >= rejoined.Term() {
			t.Fatal("stale leader did not step down after rejoining")
		}
		if rejoined.Commit() < committed {
			t.Fatalf("rejoined node commit %d below cluster commit %d", rejoined.Commit(), committed)
		}
		if rejoined.LogLen() != c.nodes[succ].LogLen() {
			t.Fatalf("rejoined log length %d != leader log length %d (divergent suffix kept?)",
				rejoined.LogLen(), c.nodes[succ].LogLen())
		}
		// The agreement oracle saw every apply on every node: a kept
		// divergent entry would have tripped it.
		if v := c.violations(t); len(v) != 0 {
			t.Fatalf("divergent-rejoin run violated invariants: %v", v)
		}
	})

	t.Run("client retry after leader loss", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.N = 3
		c := newEdgeCluster(t, cfg, 31)
		var completions uint64
		client, err := NewClient(simnet.Addr(cfg.N), cfg, DefaultClientConfig(), c.net,
			WithOnComplete(func(uint64, time.Duration) { completions++ }))
		if err != nil {
			t.Fatal(err)
		}
		c.start()
		client.Start()
		c.eng.RunFor(time.Second)
		if completions == 0 {
			t.Fatal("client made no progress before the leader loss")
		}
		before := completions

		// Permanently isolate the leader mid-run: the client's in-flight
		// request dies with it and must be recovered purely by retry
		// rotation to the successor.
		lost := currentLeader(c.nodes)
		if lost < 0 {
			t.Fatal("no leader to lose")
		}
		c.isolate(lost)
		c.eng.RunFor(2 * time.Second)

		if completions <= before {
			t.Fatalf("client never recovered after leader loss (%d completions before and after)", before)
		}
		if client.Stats().Retransmissions == 0 {
			t.Fatal("recovery happened without a single retransmission; leader loss untested")
		}
		if succ := currentLeader(c.nodes); succ == lost {
			t.Fatalf("isolated node %d still counted as cluster leader", lost)
		}
		if v := c.violations(t); len(v) != 0 {
			t.Fatalf("leader-loss run violated invariants: %v", v)
		}
	})
}

// TestClientRetryTimerExits: a client whose request commits leaves the
// pending retry timer to the next request's Reset, so an exit that sends no
// next request has to stop it: Client.Stop with a request in flight and a
// Stop from inside the completion observer. At each the timer is inactive,
// Engine.Pending is exactly what it was when the reply.OK arm stopped the
// timer first thing, and no retry ever fires.
func TestClientRetryTimerExits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		exit    func(cl *edgeCluster, c *Client) // runs inside onComplete
		drive   func(cl *edgeCluster, c *Client) // from Start to the exit
		pending int
	}{
		{"stop-mid-request",
			func(cl *edgeCluster, c *Client) { t.Error("the stopped client completed a request") },
			func(cl *edgeCluster, c *Client) { cl.eng.RunFor(200 * time.Microsecond); c.Stop() }, 6},
		{"stop-in-oncomplete",
			func(cl *edgeCluster, c *Client) { c.Stop(); cl.eng.Stop() },
			func(cl *edgeCluster, c *Client) { cl.eng.Run() }, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cl := newEdgeCluster(t, cfg, 5)
			cl.start()
			cl.eng.RunFor(time.Second) // a leader is up and heartbeating
			var c *Client
			c, err := NewClient(simnet.Addr(cfg.N), cfg, DefaultClientConfig(), cl.net,
				WithOnComplete(func(uint64, time.Duration) { tc.exit(cl, c) }))
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			tc.drive(cl, c)
			if c.retry.Active() {
				t.Error("the retry timer is still pending")
			}
			if got := cl.eng.Pending(); got != tc.pending {
				t.Errorf("%d events pending, want exactly %d", got, tc.pending)
			}
			cl.eng.Resume()
			cl.eng.RunFor(time.Second)
			if st := c.Stats(); st.Retransmissions != 0 || st.Issued != 1 {
				t.Errorf("%d retransmissions of %d requests, want none of 1", st.Retransmissions, st.Issued)
			}
		})
	}
}
