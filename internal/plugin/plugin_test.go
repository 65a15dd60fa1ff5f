package plugin

import (
	"math/rand"
	"testing"

	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/scenario"
)

func composedSpace(t *testing.T, plugins ...core.Plugin) *scenario.Space {
	t.Helper()
	s, err := core.Space(plugins...)
	if err != nil {
		t.Fatalf("Space: %v", err)
	}
	return s
}

func TestPaperHyperspaceSize(t *testing.T) {
	s := composedSpace(t, NewMACCorrupt(), NewClients())
	if got := s.Size(); got != 204800 {
		t.Errorf("paper hyperspace size = %d, want 204800 (4096*25*2)", got)
	}
}

func TestMACCorruptSmallDistanceStaysClose(t *testing.T) {
	p := NewMACCorrupt()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(1))
	parent := s.New(map[string]int64{DimMACMask: 2000})
	for i := 0; i < 200; i++ {
		child := p.Mutate(parent, 0, rng)
		c := child.GetOr(DimMACMask, -1)
		if c == 2000 {
			t.Fatal("mutation must change the scenario")
		}
		if c != 1999 && c != 2001 {
			t.Fatalf("distance-0 mutation jumped from 2000 to %d", c)
		}
		// A coordinate step of 1 flips exactly one mask bit.
		if d := graycode.HammingDistance(graycode.Encode(2000), graycode.Encode(uint64(c))); d != 1 {
			t.Fatalf("neighbor masks differ in %d bits, want 1", d)
		}
	}
}

func TestMACCorruptLargeDistanceJumps(t *testing.T) {
	p := NewMACCorrupt()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(2))
	parent := s.New(map[string]int64{DimMACMask: 2000})
	maxJump := int64(0)
	for i := 0; i < 200; i++ {
		child := p.Mutate(parent, 1, rng)
		c := child.GetOr(DimMACMask, -1)
		d := c - 2000
		if d < 0 {
			d = -d
		}
		// Wrapping distance.
		if 4096-d < d {
			d = 4096 - d
		}
		if d > maxJump {
			maxJump = d
		}
	}
	if maxJump < 512 {
		t.Errorf("distance-1 mutations max jump %d; expected long jumps", maxJump)
	}
}

func TestMACCorruptMutationStaysInRange(t *testing.T) {
	p := NewMACCorrupt()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(3))
	parent := s.New(map[string]int64{DimMACMask: 4095})
	for i := 0; i < 500; i++ {
		dist := rng.Float64()
		child := p.Mutate(parent, dist, rng)
		c := child.GetOr(DimMACMask, -1)
		if c < 0 || c > 4095 {
			t.Fatalf("mutation escaped the axis: %d", c)
		}
		parent = child
	}
}

// TestMACCorruptBinaryAblation: the A1 ablation's two encodings of a
// coordinate, Gray (what the PBFT deployment arms) and plain binary,
// differ, and only the Gray one keeps the plugin's smallest mutation a
// one-bit change of the armed mask: 2047 -> 2048 flips all twelve bits
// of the coordinate.
func TestMACCorruptBinaryAblation(t *testing.T) {
	if graycode.Encode(5) == 5 {
		t.Error("Gray and binary encodings should differ at coordinate 5")
	}
	if d := graycode.HammingDistance(graycode.Encode(2047), graycode.Encode(2048)); d != 1 {
		t.Errorf("Gray masks of 2047 and 2048 differ in %d bits, want 1", d)
	}
	if d := graycode.HammingDistance(2047, 2048); d != 12 {
		t.Errorf("binary masks of 2047 and 2048 differ in %d bits, want 12", d)
	}
}

func TestClientsDimensions(t *testing.T) {
	p := NewClients()
	dims := p.Dims
	if len(dims) != 2 {
		t.Fatalf("Clients owns %d dims, want 2", len(dims))
	}
	if dims[0].Count() != 25 || dims[1].Count() != 2 {
		t.Errorf("paper dims: correct=%d (want 25), malicious=%d (want 2)",
			dims[0].Count(), dims[1].Count())
	}
}

func TestClientsMutateStaysOnGrid(t *testing.T) {
	p := NewClients()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(4))
	sc := s.New(map[string]int64{DimCorrectClients: 100, DimMaliciousClients: 1})
	for i := 0; i < 500; i++ {
		sc = p.Mutate(sc, rng.Float64(), rng)
		cc := sc.GetOr(DimCorrectClients, -1)
		mc := sc.GetOr(DimMaliciousClients, -1)
		if cc < 10 || cc > 250 || cc%10 != 0 {
			t.Fatalf("correct_clients off grid: %d", cc)
		}
		if mc != 1 && mc != 2 {
			t.Fatalf("malicious_clients out of range: %d", mc)
		}
	}
}

func TestClientsSmallDistanceSmallStep(t *testing.T) {
	p := NewClients()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(5))
	parent := s.New(map[string]int64{DimCorrectClients: 100, DimMaliciousClients: 1})
	for i := 0; i < 100; i++ {
		child := p.Mutate(parent, 0, rng)
		cc := child.GetOr(DimCorrectClients, -1)
		if cc != 90 && cc != 100 && cc != 110 {
			t.Fatalf("distance-0 client mutation jumped to %d", cc)
		}
	}
}

func TestReorderMutate(t *testing.T) {
	p := NewReorder()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(6))
	sc := s.New(nil)
	for i := 0; i < 300; i++ {
		sc = p.Mutate(sc, rng.Float64(), rng)
		pct := sc.GetOr(DimReorderPct, -1)
		delay := sc.GetOr(DimReorderDelayMS, -1)
		if pct < 0 || pct > 100 || pct%5 != 0 {
			t.Fatalf("reorder_pct off axis: %d", pct)
		}
		if delay < 0 || delay > 50 || delay%5 != 0 {
			t.Fatalf("reorder_delay_ms off axis: %d", delay)
		}
	}
}

func TestFaultPlanCallNumberLocality(t *testing.T) {
	// §5: "a small mutateDistance means injecting in a neighboring call".
	p := NewFaultPlan()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(7))
	parent := s.New(map[string]int64{DimDropCall: 1000})
	for i := 0; i < 100; i++ {
		child := p.Mutate(parent, 0, rng)
		call := child.GetOr(DimDropCall, -1)
		if call < 999 || call > 1001 {
			t.Fatalf("distance-0 fault mutation moved call 1000 -> %d", call)
		}
	}
}

func TestSlowPrimaryMutate(t *testing.T) {
	p := NewSlowPrimary()
	s := composedSpace(t, p)
	rng := rand.New(rand.NewSource(8))
	sc := s.New(nil)
	flippedSlow := false
	for i := 0; i < 300; i++ {
		sc = p.Mutate(sc, rng.Float64(), rng)
		sp := sc.GetOr(DimSlowPrimary, -1)
		col := sc.GetOr(DimCollude, -1)
		iv := sc.GetOr(DimSlowIntervalMS, -1)
		if sp != 0 && sp != 1 || col != 0 && col != 1 {
			t.Fatalf("flag dims out of range: slow=%d collude=%d", sp, col)
		}
		if iv < 100 || iv > 5000 || iv%100 != 0 {
			t.Fatalf("slow_interval_ms off axis: %d", iv)
		}
		if sp == 1 {
			flippedSlow = true
		}
	}
	if !flippedSlow {
		t.Error("slow_primary flag never flipped across 300 mutations")
	}
}

func TestAllPluginsComposable(t *testing.T) {
	s := composedSpace(t, NewMACCorrupt(), NewClients(), NewReorder(), NewFaultPlan(), NewSlowPrimary())
	if s.Size() == 0 {
		t.Error("composed space empty")
	}
	if len(s.Dimensions()) != 10 {
		t.Errorf("composed space has %d dims, want 10", len(s.Dimensions()))
	}
}

func TestMutationsAlwaysChangeScenario(t *testing.T) {
	plugins := []core.Plugin{NewMACCorrupt(), NewClients(), NewReorder(), NewFaultPlan()}
	s := composedSpace(t, plugins...)
	rng := rand.New(rand.NewSource(9))
	for _, p := range plugins {
		sc := s.Random(rng)
		changed := 0
		for i := 0; i < 50; i++ {
			child := p.Mutate(sc, rng.Float64(), rng)
			if child.Key() != sc.Key() {
				changed++
			}
		}
		if changed < 40 {
			t.Errorf("plugin %s mutations were no-ops %d/50 times", p.Name, 50-changed)
		}
	}
}
