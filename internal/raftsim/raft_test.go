package raftsim

import (
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

func testSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := scenario.NewSpace(append(NewClientsPlugin().Dimensions(),
		NewLeaderFlapPlugin().Dimensions()...)...)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestElectionConvergence: an undisturbed cluster elects exactly one
// leader and keeps it.
func TestElectionConvergence(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.New(7)
	net := simnet.New(eng, simnet.Config{BaseLatency: 500 * time.Microsecond})
	nodes := make([]*Node, cfg.N)
	for i := range nodes {
		n, err := NewNode(i, cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	eng.RunFor(2 * time.Second)

	leaders := 0
	for _, n := range nodes {
		if n.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("want exactly 1 leader, got %d", leaders)
	}
	lead := currentLeader(nodes)
	for _, n := range nodes {
		if n.Leader() != lead {
			t.Fatalf("node %d thinks leader is %d, cluster leader is %d", n.ID(), n.Leader(), lead)
		}
	}
}

// TestLogReplication: closed-loop clients make progress and all nodes
// converge on the same committed log.
func TestLogReplication(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.New(3)
	net := simnet.New(eng, simnet.Config{BaseLatency: 500 * time.Microsecond})
	nodes := make([]*Node, cfg.N)
	for i := range nodes {
		n, err := NewNode(i, cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	var completions uint64
	clients := make([]*Client, 10)
	for i := range clients {
		c, err := NewClient(simnet.Addr(cfg.N+i), cfg, DefaultClientConfig(), net,
			WithOnComplete(func(uint64, time.Duration) { completions++ }))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	for _, n := range nodes {
		n.Start()
	}
	for _, c := range clients {
		c.Start()
	}
	eng.RunFor(3 * time.Second)

	if completions == 0 {
		t.Fatal("no client request ever completed")
	}
	// Commit indices converge within one heartbeat of each other.
	lead := currentLeader(nodes)
	if lead < 0 {
		t.Fatal("no leader after 3s")
	}
	leaderCommit := nodes[lead].Commit()
	if leaderCommit == 0 {
		t.Fatal("leader committed nothing")
	}
	for _, n := range nodes {
		if d := int64(leaderCommit) - int64(n.Commit()); d < 0 || d > int64(leaderCommit)/2 {
			t.Fatalf("node %d commit %d far behind leader commit %d", n.ID(), n.Commit(), leaderCommit)
		}
	}
}

// TestRunnerBaselineHealthy: the attack-free workload sustains real
// throughput — thousands of requests per second with compressed timers.
func TestRunnerBaselineHealthy(t *testing.T) {
	r, err := NewRunner(DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	tput := r.Baseline(10)
	if tput < 1000 {
		t.Fatalf("baseline throughput %f req/s too low for a healthy 5-node cluster", tput)
	}
}

// TestLeaderFlapDegradesThroughput: the election-storm scenario — leader
// isolated for longer than the election timeout, re-isolated as soon as
// a successor stabilizes — must show high impact and extra elections.
func TestLeaderFlapDegradesThroughput(t *testing.T) {
	r, err := NewRunner(DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	storm := space.New(map[string]int64{
		DimClients:        10,
		DimFlapIntervalMS: 100,
		DimFlapDownMS:     400,
	})
	res, rep := r.RunReport(storm)
	if res.Impact < 0.3 {
		t.Fatalf("leader flap impact %.3f; want a visible storm (>= 0.3), report %+v", res.Impact, rep)
	}
	if rep.ElectionsStarted < 3 {
		t.Fatalf("election storm started only %d elections", rep.ElectionsStarted)
	}
	quiet := space.New(map[string]int64{
		DimClients:        10,
		DimFlapIntervalMS: 0,
		DimFlapDownMS:     0,
	})
	qres, _ := r.RunReport(quiet)
	if qres.Impact > 0.1 {
		t.Fatalf("no-attack scenario shows impact %.3f", qres.Impact)
	}
	if res.Throughput >= qres.Throughput {
		t.Fatalf("flap throughput %.0f not below healthy %.0f", res.Throughput, qres.Throughput)
	}
}

// TestRunnerDeterministic: a test is a pure function of (workload,
// scenario).
func TestRunnerDeterministic(t *testing.T) {
	space := testSpace(t)
	sc := space.New(map[string]int64{
		DimClients:        15,
		DimFlapIntervalMS: 200,
		DimFlapDownMS:     200,
	})
	run := func() (float64, float64, uint64) {
		r, err := NewRunner(DefaultWorkload())
		if err != nil {
			t.Fatal(err)
		}
		res, rep := r.RunReport(sc)
		return res.Impact, res.Throughput, rep.ElectionsStarted
	}
	i1, t1, e1 := run()
	i2, t2, e2 := run()
	if i1 != i2 || t1 != t2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%.4f,%.0f,%d) vs (%.4f,%.0f,%d)", i1, t1, e1, i2, t2, e2)
	}
}

// TestApplyDedup: retransmitted requests must not double-apply; the
// applied-entries count can never exceed the clients' completed count
// plus in-flight requests.
func TestApplyDedup(t *testing.T) {
	w := DefaultWorkload()
	// A lossy network forces retransmissions.
	w.Net.DropRate = 0.05
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	sc := space.New(map[string]int64{DimClients: 10})
	res, rep := r.RunReport(sc)
	if res.Throughput <= 0 {
		t.Fatal("lossy network made no progress")
	}
	if rep.Retransmissions == 0 {
		t.Fatal("5% drop rate caused no retransmissions; dedup untested")
	}
}

// TestStructuralMarkerMatchesMasterKey: scenario.Dimension.Structural is
// a promise about populationOf — over every plugin the Raft target
// accepts, moving a structural axis changes the master key and moving any
// other axis does not. core.PlanShards relies on it to give every
// population to one shard.
func TestStructuralMarkerMatchesMasterKey(t *testing.T) {
	space, err := core.Space(
		NewClientsPlugin(), NewLeaderFlapPlugin(),
		NewCrashRestartPlugin(), NewClockSkewPlugin(), NewOneWayPlugin(), NewNetFaultsPlugin(),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := space.New(nil)
	structural := 0
	for _, d := range space.Dimensions() {
		moved := populationOf(base.With(d.Name, d.Value(1))) != populationOf(base)
		if moved != d.Structural {
			t.Errorf("%s: Structural=%v, moving it changes the master key: %v", d.Name, d.Structural, moved)
		}
		if d.Structural {
			structural++
		}
	}
	if structural != 1 {
		t.Errorf("%d structural axes, want raft_clients alone", structural)
	}
}
