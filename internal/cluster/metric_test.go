package cluster

import (
	"testing"
	"time"

	"avd/internal/graycode"
	"avd/internal/plugin"
)

// TestRelativeMetricIgnoresDeploymentSize: under the default
// per-client-count baseline, both healthy deployments score ~0.
func TestRelativeMetricIgnoresDeploymentSize(t *testing.T) {
	r := newRunner(t, fastWorkload())
	space := paperSpace(t)
	for _, cc := range []int64{10, 100} {
		res := r.Run(space.New(map[string]int64{
			plugin.DimMACMask: 0, plugin.DimCorrectClients: cc, plugin.DimMaliciousClients: 1,
		}))
		if res.Impact > 0.1 {
			t.Errorf("healthy %d-client deployment has impact %.3f under relative metric", cc, res.Impact)
		}
	}
}

// TestLatencyComponentRaisesImpactOfDeadSystem: the latency blend must
// separate "dead" (censored latency ~= window) from "badly degraded".
func TestLatencyComponentRaisesImpactOfDeadSystem(t *testing.T) {
	withLat := fastWorkload()
	noLat := fastWorkload()
	noLat.LatencyRef = 0
	sc := paperSpace(t).New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	a := newRunner(t, withLat).Run(sc)
	b := newRunner(t, noLat).Run(sc)
	if a.AvgLatency < 500*time.Millisecond {
		t.Fatalf("dead system latency %v; censoring broken", a.AvgLatency)
	}
	// Throughput components equal; only the blend differs.
	if a.Throughput != b.Throughput {
		t.Fatalf("metric change altered measurement: %v vs %v", a.Throughput, b.Throughput)
	}
	if a.Impact < b.Impact-0.21 || a.Impact > 1 {
		t.Errorf("latency blend: with=%.3f without=%.3f", a.Impact, b.Impact)
	}
}

// TestImpactBounded: impact stays in [0,1].
func TestImpactBounded(t *testing.T) {
	res := newRunner(t, fastWorkload()).Run(paperSpace(t).New(map[string]int64{
		plugin.DimMACMask: 0, plugin.DimCorrectClients: 50, plugin.DimMaliciousClients: 1,
	}))
	if res.Impact < 0 || res.Impact > 1 {
		t.Errorf("impact %.3f out of bounds", res.Impact)
	}
}
