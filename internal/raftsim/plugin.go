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

// DefaultPlugins returns the Raft target's default attack surface: the
// client population and the leader-flap attacker.
func DefaultPlugins() []core.Plugin {
	return []core.Plugin{NewClientsPlugin(), NewLeaderFlapPlugin()}
}

// NewClientsPlugin returns the deployment-shape dimension of the Raft
// experiment: how many correct closed-loop clients connect (5..50, step
// 5). The axis is structural: the raft harness keys its masters and
// baselines on the client count alone. Small distances nudge the client
// count by one step, large distances jump across the range.
func NewClientsPlugin() core.Plugin {
	clients := scenario.Dimension{Name: DimClients, Min: 5, Max: 50, Step: 5, Structural: true}
	return core.Plugin{
		Name: "raftclients",
		Dims: []scenario.Dimension{clients},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			axis := plugin.GridOf(parent, clients)
			delta := plugin.ScaledDelta(distance, axis.Count()-1, rng)
			cur := parent.GetOr(DimClients, clients.Min)
			return parent.With(DimClients, cur+delta*axis.Step)
		},
	}
}

// NewLeaderFlapPlugin returns the Raft target's network-attacker plugin:
// a vantage point that can periodically sever the current leader's
// links. Its two dimensions are the flap cadence (0..1000 ms step 50) and
// the isolation length (0..400 ms step 25); the sweet spot the explorers
// converge on — isolation just longer than the election timeout,
// repeated just as the new leader stabilizes — is the election storm.
// Small distances tune the flap cadence (neighboring intervals reorder
// the same elections slightly), larger distances also rewrite the
// isolation length.
func NewLeaderFlapPlugin() core.Plugin {
	const maxIntervalMS, maxDownMS = 1000, 400
	return core.Plugin{
		Name: "leaderflap",
		Dims: []scenario.Dimension{
			{Name: DimFlapIntervalMS, Min: 0, Max: maxIntervalMS, Step: 50},
			{Name: DimFlapDownMS, Min: 0, Max: maxDownMS, Step: 25},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			interval := parent.GetOr(DimFlapIntervalMS, 0)
			out := parent.With(DimFlapIntervalMS, interval+50*plugin.ScaledDelta(distance, maxIntervalMS/100, rng))
			if distance > 0.5 || rng.Float64() < 0.25 {
				down := out.GetOr(DimFlapDownMS, 0)
				out = out.With(DimFlapDownMS, down+25*plugin.ScaledDelta(distance, maxDownMS/50, rng))
			}
			return out
		},
	}
}
