package raftsim

import (
	"testing"
	"time"

	"avd/internal/core"
)

// TestParkedMastersHoldNoLeases: the Raft harness honours the pool's
// retention contract (DESIGN.md §15) — after forks interleaved across six
// client counts (attack forks, the baseline forks they trigger) and a
// cold run, nothing is on lease, every parked master holds exactly the
// chunks its capture kept, and its nodes have handed their logs back.
func TestParkedMastersHoldNoLeases(t *testing.T) {
	w := DefaultWorkload()
	w.Measure = 400 * time.Millisecond
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(NewClientsPlugin(), NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{5, 10, 15, 20, 25, 30}
	for round := 0; round < 3; round++ {
		for _, clients := range counts {
			r.RunFork(space.New(map[string]int64{DimClients: clients, DimFlapIntervalMS: 100, DimFlapDownMS: 200}))
		}
	}
	r.Run(space.New(map[string]int64{DimClients: 10}))
	if got := r.pool.Leased(); got != 0 {
		t.Errorf("%d chunks still on lease with every master parked", got)
	}
	masters := 0
	r.EachMaster(func(clients int64, d *deployment) {
		masters++
		if d.mem.Held() != d.mem.Owned() {
			t.Errorf("parked %d-client master holds %d chunks, its capture kept %d", clients, d.mem.Held(), d.mem.Owned())
		}
		for _, n := range d.nodes {
			if n.log != nil {
				t.Errorf("parked %d-client master: node %d still holds a %d-entry log buffer", clients, n.id, cap(n.log))
			}
		}
	})
	if masters < len(counts) {
		t.Fatalf("inspected %d parked masters, want at least %d", masters, len(counts))
	}
}
