package raftsim

import (
	"math/rand"

	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

// Dimension names owned by the Raft target. They live here rather than
// in internal/plugin because the seam between search and system runs
// through core.Target: each target package ships the fault-injection
// hooks that apply to it.
const (
	// DimClients is the number of correct closed-loop clients.
	DimClients = "raft_clients"
	// DimFlapIntervalMS is the period at which the attacker isolates the
	// current leader (0 disables the attack).
	DimFlapIntervalMS = "flap_interval_ms"
	// DimFlapDownMS is how long each isolation lasts.
	DimFlapDownMS = "flap_down_ms"
)

// Clients controls the deployment-shape dimension of the Raft
// experiment: how many correct closed-loop clients connect.
type Clients struct {
	Min, Max, Step int64
}

// NewClientsPlugin returns the default Raft client-population dimension
// (5..50 clients, step 5).
func NewClientsPlugin() *Clients {
	return &Clients{Min: 5, Max: 50, Step: 5}
}

var _ core.Plugin = (*Clients)(nil)

// Name implements core.Plugin.
func (p *Clients) Name() string { return "raftclients" }

// Dimensions implements core.Plugin. The axis is structural: the raft
// harness keys its masters and baselines on the client count alone.
func (p *Clients) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimClients, Min: p.Min, Max: p.Max, Step: p.Step, Structural: true},
	}
}

// Mutate implements core.Plugin: small distances nudge the client count
// by one step, large distances jump across the range.
func (p *Clients) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	axis := plugin.GridOf(parent, p.Dimensions()[0])
	delta := plugin.ScaledDelta(distance, axis.Count()-1, rng)
	cur := parent.GetOr(DimClients, p.Min)
	return parent.With(DimClients, cur+delta*axis.Step)
}

// LeaderFlap is the Raft target's network-attacker plugin: a vantage
// point that can periodically sever the current leader's links. Its two
// dimensions are the flap cadence and the isolation length; the sweet
// spot the explorers converge on — isolation just longer than the
// election timeout, repeated just as the new leader stabilizes — is the
// election storm.
type LeaderFlap struct {
	// MaxIntervalMS / MaxDownMS bound the axes.
	MaxIntervalMS int64
	MaxDownMS     int64
}

// NewLeaderFlapPlugin returns the plugin with default axis bounds
// (interval 0..1000 ms step 50, down 0..400 ms step 25).
func NewLeaderFlapPlugin() *LeaderFlap {
	return &LeaderFlap{MaxIntervalMS: 1000, MaxDownMS: 400}
}

var _ core.Plugin = (*LeaderFlap)(nil)

// Name implements core.Plugin.
func (p *LeaderFlap) Name() string { return "leaderflap" }

// Dimensions implements core.Plugin.
func (p *LeaderFlap) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimFlapIntervalMS, Min: 0, Max: p.MaxIntervalMS, Step: 50},
		{Name: DimFlapDownMS, Min: 0, Max: p.MaxDownMS, Step: 25},
	}
}

// Mutate implements core.Plugin: small distances tune the flap cadence
// (neighboring intervals reorder the same elections slightly), larger
// distances also rewrite the isolation length.
func (p *LeaderFlap) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	interval := parent.GetOr(DimFlapIntervalMS, 0)
	out := parent.With(DimFlapIntervalMS, interval+50*plugin.ScaledDelta(distance, p.MaxIntervalMS/100, rng))
	if distance > 0.5 || rng.Float64() < 0.25 {
		down := out.GetOr(DimFlapDownMS, 0)
		out = out.With(DimFlapDownMS, down+25*plugin.ScaledDelta(distance, p.MaxDownMS/50, rng))
	}
	return out
}
