// Package plugin provides AVD's testing-tool plugins (§3, §5 of the
// paper). Each plugin owns the hyperspace dimensions of one testing tool
// and implements tool-specific mutation semantics for the controller's
// mutateDistance: a small distance makes the smallest meaningful change
// (a Gray-code neighbor, an adjacent call number, one client more), a
// large distance jumps far.
//
// Dimension names used by the cluster runner:
//
//	mac_mask            MAC-corruption coordinate (Gray-decoded to a mask)
//	correct_clients     number of correct closed-loop clients
//	malicious_clients   number of MAC-corrupting clients
//	reorder_pct         percent of replica traffic adversarially delayed
//	reorder_delay_ms    maximum extra delay per reordered message
//	drop_call           call number at which a network-drop fault fires
//	drop_len            how many consecutive sends are dropped
//	slow_primary        0/1: replica 0 is a slow Byzantine primary
//	collude             0/1: one malicious client colludes with it
//	slow_interval_ms    the slow primary's proposal period
package plugin

import (
	"math"
	"math/rand"

	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/scenario"
)

// Dimension name constants shared with the cluster runner.
const (
	DimMACMask          = "mac_mask"
	DimCorrectClients   = "correct_clients"
	DimMaliciousClients = "malicious_clients"
	DimReorderPct       = "reorder_pct"
	DimReorderDelayMS   = "reorder_delay_ms"
	DimDropCall         = "drop_call"
	DimDropLen          = "drop_len"
	DimSlowPrimary      = "slow_primary"
	DimCollude          = "collude"
	DimSlowIntervalMS   = "slow_interval_ms"
)

// Dimension name constants of the fault-vocabulary-v2 plugins (DESIGN.md
// §10), shared by both shipped targets: the cluster (PBFT) and raftsim
// harnesses read the same names, so one plugin instance drives either
// deployment.
const (
	// DimCrashIntervalMS is the period at which the crash-restart
	// attacker kills a node (0 disables the attack).
	DimCrashIntervalMS = "crash_interval_ms"
	// DimCrashDownMS is how long a crashed node stays down.
	DimCrashDownMS = "crash_down_ms"
	// DimCrashLose selects durable-state loss: 0 = clean power cycle
	// (the node's persistent state survives), 1 = the restarted node
	// comes back blank.
	DimCrashLose = "crash_lose_state"

	// DimSkewNode picks the clock-skew victim: 0 = off, k > 0 = node k-1.
	DimSkewNode = "skew_node"
	// DimSkewPermille is the victim's clock drift in permille (positive =
	// fast clock, timeouts fire early).
	DimSkewPermille = "skew_permille"

	// DimOneWayVictim picks the asymmetric-partition victim: 0 = off,
	// k > 0 = node k-1.
	DimOneWayVictim = "oneway_victim"
	// DimOneWayDir cuts the victim's inbound (0) or outbound (1) links —
	// outbound-cut leaves a leader receiving but unheard, the classic
	// stale-leader schedule.
	DimOneWayDir = "oneway_dir"

	// DimCorruptMask is the per-link corruption schedule: bit (n mod 8)
	// of the mask decides whether the n-th matching send is garbled
	// (0 = off).
	DimCorruptMask = "corrupt_mask"
	// DimDupMask is the duplication schedule, same ModMask encoding.
	DimDupMask = "dup_mask"
	// DimNetFaultFrom restricts corruption/duplication to messages sent
	// by one node: 0 = any sender, k > 0 = node k-1.
	DimNetFaultFrom = "netfault_from"
)

// ScaledDelta converts a mutateDistance in [0,1] into a step count in
// [1, max]: distance 0 still moves by one (a mutation must change the
// scenario), distance 1 can jump across the whole axis. It is exported
// for plugins living alongside their targets (e.g. internal/raftsim) to
// share the same mutation-distance semantics.
func ScaledDelta(distance float64, max int64, rng *rand.Rand) int64 {
	if max < 1 {
		max = 1
	}
	d := int64(math.Round(distance * float64(max)))
	if d < 1 {
		d = 1
	}
	// Jitter the magnitude so repeated mutations of the same parent do
	// not all land on the same child.
	d = 1 + rng.Int63n(d)
	if rng.Intn(2) == 0 {
		return -d
	}
	return d
}

// GridOf returns the axis named by own as the parent's space grids it,
// and own itself when the parent has no such axis. A plugin that steps
// along an axis must step on this grid, not on its own fields: a shard
// that strides the axis (core.ShardPlan) sees every K-th value, and
// Scenario.With floors anything in between back down.
func GridOf(parent scenario.Scenario, own scenario.Dimension) scenario.Dimension {
	if space := parent.Space(); space != nil {
		if d, ok := space.Dim(own.Name); ok {
			return d
		}
	}
	return own
}

// MACCorrupt is the MAC-corruption fault-injection plugin of §6. Its
// single dimension is the 12-bit hyperspace coordinate; the PBFT
// deployment arms the Gray encoding of the coordinate as the injector
// bitmask, so that stepping the coordinate by one flips exactly one mask
// bit (cluster.Workload.BinaryMask arms the coordinate itself, the A1
// ablation).
type MACCorrupt struct {
	// Bits is the mask width (12 in the paper). Must be in [1, 32].
	Bits uint
}

// NewMACCorrupt returns the paper's 12-bit Gray-coded plugin.
func NewMACCorrupt() *MACCorrupt { return &MACCorrupt{Bits: 12} }

var _ core.Plugin = (*MACCorrupt)(nil)

// Name implements core.Plugin.
func (p *MACCorrupt) Name() string { return "maccorrupt" }

// Dimensions implements core.Plugin.
func (p *MACCorrupt) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{{
		Name: DimMACMask,
		Min:  0,
		Max:  int64(uint64(1)<<p.Bits) - 1,
		Step: 1,
	}}
}

// Mutate implements core.Plugin: it steps the coordinate by a distance-
// scaled amount, wrapping at the axis edges ("a small mutateDistance
// entails choosing a neighboring value").
func (p *MACCorrupt) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	coord := parent.GetOr(DimMACMask, 0)
	half := int64(uint64(1) << (p.Bits - 1))
	delta := ScaledDelta(distance, half, rng)
	next := graycode.Step(uint64(coord), p.Bits, delta)
	return parent.With(DimMACMask, int64(next))
}

// Clients controls the deployment-shape dimensions of the PBFT
// experiment: how many correct clients connect (10..250 step 10) and how
// many malicious clients (1 or 2).
type Clients struct {
	MinCorrect, MaxCorrect, StepCorrect int64
	MinMalicious, MaxMalicious          int64
}

// NewClients returns the paper's client dimensions.
func NewClients() *Clients {
	return &Clients{
		MinCorrect: 10, MaxCorrect: 250, StepCorrect: 10,
		MinMalicious: 1, MaxMalicious: 2,
	}
}

var _ core.Plugin = (*Clients)(nil)

// Name implements core.Plugin.
func (p *Clients) Name() string { return "clients" }

// Dimensions implements core.Plugin. Both axes are structural: the
// cluster harness keys its masters and baselines on exactly this pair
// (cluster.populationOf).
func (p *Clients) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimCorrectClients, Min: p.MinCorrect, Max: p.MaxCorrect, Step: p.StepCorrect, Structural: true},
		{Name: DimMaliciousClients, Min: p.MinMalicious, Max: p.MaxMalicious, Step: 1, Structural: true},
	}
}

// Mutate implements core.Plugin: small distances nudge the correct-client
// count by one step; large distances jump across the range and may flip
// the malicious-client count.
func (p *Clients) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	// Strong mutations may change the malicious population too.
	if p.MaxMalicious > p.MinMalicious && (distance > 0.5 || rng.Float64() < 0.2) {
		cur := parent.GetOr(DimMaliciousClients, p.MinMalicious)
		span := p.MaxMalicious - p.MinMalicious
		next := p.MinMalicious + (cur-p.MinMalicious+1+rng.Int63n(span))%(span+1)
		parent = parent.With(DimMaliciousClients, next)
	}
	axis := GridOf(parent, p.Dimensions()[0])
	delta := ScaledDelta(distance, axis.Count()-1, rng)
	cur := parent.GetOr(DimCorrectClients, p.MinCorrect)
	return parent.With(DimCorrectClients, cur+delta*axis.Step)
}

// Reorder is the message-reordering tool of §5: it delays a fraction of
// replica-bound traffic to scramble delivery order. mutateDistance maps
// to the edit distance between the original and mutated delivery
// streams: small distances tweak the reordered fraction slightly, large
// distances rewrite both fraction and delay bound.
type Reorder struct{}

var _ core.Plugin = (*Reorder)(nil)

// Name implements core.Plugin.
func (p *Reorder) Name() string { return "reorder" }

// Dimensions implements core.Plugin.
func (p *Reorder) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimReorderPct, Min: 0, Max: 100, Step: 5},
		{Name: DimReorderDelayMS, Min: 0, Max: 50, Step: 5},
	}
}

// Mutate implements core.Plugin.
func (p *Reorder) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	pct := parent.GetOr(DimReorderPct, 0)
	out := parent.With(DimReorderPct, pct+5*ScaledDelta(distance, 20, rng))
	if distance > 0.5 || rng.Float64() < 0.25 {
		delay := out.GetOr(DimReorderDelayMS, 0)
		out = out.With(DimReorderDelayMS, delay+5*ScaledDelta(distance, 10, rng))
	}
	return out
}

// FaultPlan is the library-level fault-injection tool of §5 (LFI-style):
// it drops a run of consecutive sends at a malicious client starting at a
// given call number. Per the paper, mutateDistance is reflected in the
// call number: "a small mutateDistance means injecting in a neighboring
// call".
type FaultPlan struct {
	// MaxCall bounds the injection call number axis.
	MaxCall int64
}

// NewFaultPlan returns the plugin with the paper-sized 4096-call axis.
func NewFaultPlan() *FaultPlan { return &FaultPlan{MaxCall: 4095} }

var _ core.Plugin = (*FaultPlan)(nil)

// Name implements core.Plugin.
func (p *FaultPlan) Name() string { return "faultplan" }

// Dimensions implements core.Plugin.
func (p *FaultPlan) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimDropCall, Min: 0, Max: p.MaxCall, Step: 1},
		{Name: DimDropLen, Min: 0, Max: 16, Step: 1},
	}
}

// Mutate implements core.Plugin.
func (p *FaultPlan) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	call := parent.GetOr(DimDropCall, 0)
	out := parent.With(DimDropCall, call+ScaledDelta(distance, p.MaxCall/2, rng))
	if distance > 0.5 || rng.Float64() < 0.25 {
		n := out.GetOr(DimDropLen, 0)
		out = out.With(DimDropLen, n+ScaledDelta(distance, 8, rng))
	}
	return out
}

// SlowPrimary synthesizes the replica-side behavior of §6's second bug: a
// Byzantine primary pacing execution against the view-change timer,
// optionally colluding with a malicious client.
type SlowPrimary struct{}

var _ core.Plugin = (*SlowPrimary)(nil)

// Name implements core.Plugin.
func (p *SlowPrimary) Name() string { return "slowprimary" }

// Dimensions implements core.Plugin.
func (p *SlowPrimary) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimSlowPrimary, Min: 0, Max: 1, Step: 1},
		{Name: DimCollude, Min: 0, Max: 1, Step: 1},
		{Name: DimSlowIntervalMS, Min: 100, Max: 5000, Step: 100},
	}
}

// Mutate implements core.Plugin: small distances tune the pacing
// interval; large distances flip the behavior switches.
func (p *SlowPrimary) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	out := parent
	switch {
	case distance > 0.66:
		out = out.With(DimSlowPrimary, 1-out.GetOr(DimSlowPrimary, 0))
	case distance > 0.33 && rng.Intn(2) == 0:
		out = out.With(DimCollude, 1-out.GetOr(DimCollude, 0))
	default:
		cur := out.GetOr(DimSlowIntervalMS, 100)
		out = out.With(DimSlowIntervalMS, cur+100*ScaledDelta(distance, 24, rng))
	}
	return out
}

// --- Fault vocabulary v2 (DESIGN.md §10) -----------------------------------
//
// The plugins below are protocol-neutral: both shipped targets read the
// same dimension names, so the identical plugin instance widens either
// the PBFT or the Raft hyperspace. Each axis is benign at its minimum
// (fault off), which is what lets core.Minimize walk scenarios toward
// the all-minimums origin.

// CrashRestart is the crash-restart fault plugin: an attacker that
// periodically kills one node and brings it back after a down window,
// with or without its durable state. The lose-state axis is the one the
// old vocabulary cannot express: a node that forgets the vote it granted
// or the entries it acknowledged.
type CrashRestart struct {
	MaxIntervalMS int64
	MaxDownMS     int64
}

// NewCrashRestart returns the plugin with default axis bounds (interval
// 0..1000 ms step 50, down 0..400 ms step 25).
func NewCrashRestart() *CrashRestart {
	return &CrashRestart{MaxIntervalMS: 1000, MaxDownMS: 400}
}

var _ core.Plugin = (*CrashRestart)(nil)

// Name implements core.Plugin.
func (p *CrashRestart) Name() string { return "crashrestart" }

// Dimensions implements core.Plugin.
func (p *CrashRestart) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimCrashIntervalMS, Min: 0, Max: p.MaxIntervalMS, Step: 50},
		{Name: DimCrashDownMS, Min: 0, Max: p.MaxDownMS, Step: 25},
		{Name: DimCrashLose, Min: 0, Max: 1, Step: 1},
	}
}

// Mutate implements core.Plugin: small distances tune the crash cadence,
// larger ones also rewrite the down window; the lose-state bit flips
// rarely (it halves the search space when it matters at all).
func (p *CrashRestart) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	interval := parent.GetOr(DimCrashIntervalMS, 0)
	out := parent.With(DimCrashIntervalMS, interval+50*ScaledDelta(distance, p.MaxIntervalMS/100, rng))
	if distance > 0.5 || rng.Float64() < 0.25 {
		down := out.GetOr(DimCrashDownMS, 0)
		out = out.With(DimCrashDownMS, down+25*ScaledDelta(distance, p.MaxDownMS/50, rng))
	}
	if rng.Float64() < 0.25 {
		out = out.With(DimCrashLose, 1-out.GetOr(DimCrashLose, 0))
	}
	return out
}

// ClockSkew is the per-node clock-drift plugin: one node's timers run
// fast or slow relative to its peers, entering premature-election (fast
// follower) and stale-leader (slow heartbeats) schedules into the search
// space.
type ClockSkew struct {
	// Nodes bounds the victim axis (the cluster size).
	Nodes int64
	// MaxPermille bounds the drift axis.
	MaxPermille int64
}

// NewClockSkew returns the plugin for an n-node cluster with up to 50%
// clock drift in 100-permille steps.
func NewClockSkew(nodes int64) *ClockSkew {
	return &ClockSkew{Nodes: nodes, MaxPermille: 500}
}

var _ core.Plugin = (*ClockSkew)(nil)

// Name implements core.Plugin.
func (p *ClockSkew) Name() string { return "clockskew" }

// Dimensions implements core.Plugin.
func (p *ClockSkew) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimSkewNode, Min: 0, Max: p.Nodes, Step: 1},
		{Name: DimSkewPermille, Min: 0, Max: p.MaxPermille, Step: 100},
	}
}

// Mutate implements core.Plugin.
func (p *ClockSkew) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	out := parent.With(DimSkewPermille,
		parent.GetOr(DimSkewPermille, 0)+100*ScaledDelta(distance, p.MaxPermille/100, rng))
	if distance > 0.5 || rng.Float64() < 0.25 {
		out = out.With(DimSkewNode, out.GetOr(DimSkewNode, 0)+ScaledDelta(distance, p.Nodes, rng))
	}
	return out
}

// OneWay is the asymmetric-partition plugin: it severs one direction of
// a victim's links — the fault symmetric partitions and flaps cannot
// express, because a node that can send but not receive (or the reverse)
// behaves unlike an isolated one.
type OneWay struct {
	// Nodes bounds the victim axis (the cluster size).
	Nodes int64
}

// NewOneWay returns the plugin for an n-node cluster.
func NewOneWay(nodes int64) *OneWay { return &OneWay{Nodes: nodes} }

var _ core.Plugin = (*OneWay)(nil)

// Name implements core.Plugin.
func (p *OneWay) Name() string { return "oneway" }

// Dimensions implements core.Plugin.
func (p *OneWay) Dimensions() []scenario.Dimension {
	return []scenario.Dimension{
		{Name: DimOneWayVictim, Min: 0, Max: p.Nodes, Step: 1},
		{Name: DimOneWayDir, Min: 0, Max: 1, Step: 1},
	}
}

// Mutate implements core.Plugin.
func (p *OneWay) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	out := parent.With(DimOneWayVictim,
		parent.GetOr(DimOneWayVictim, 0)+ScaledDelta(distance, p.Nodes, rng))
	if rng.Float64() < 0.25 {
		out = out.With(DimOneWayDir, 1-out.GetOr(DimOneWayDir, 0))
	}
	return out
}

// NetFaults is the message corruption/duplication plugin: deterministic
// ModMask schedules over the sends of one (or any) node, routed through
// the simnet link-fault layer and the faultinject ActCorrupt action.
type NetFaults struct {
	// Nodes bounds the sender-selector axis (the cluster size).
	Nodes int64
	// Corrupt and Dup select the mask axes the plugin exposes; an absent
	// axis reads as mask 0, which arms nothing.
	Corrupt, Dup bool
}

// NewNetFaults returns the plugin for an n-node cluster with 8-bit
// corruption and duplication masks.
func NewNetFaults(nodes int64) *NetFaults { return &NetFaults{Nodes: nodes, Corrupt: true, Dup: true} }

var _ core.Plugin = (*NetFaults)(nil)

// Name implements core.Plugin.
func (p *NetFaults) Name() string { return "netfaults" }

// Dimensions implements core.Plugin.
func (p *NetFaults) Dimensions() []scenario.Dimension {
	var dims []scenario.Dimension
	if p.Corrupt {
		dims = append(dims, scenario.Dimension{Name: DimCorruptMask, Min: 0, Max: 255, Step: 1})
	}
	if p.Dup {
		dims = append(dims, scenario.Dimension{Name: DimDupMask, Min: 0, Max: 255, Step: 1})
	}
	return append(dims, scenario.Dimension{Name: DimNetFaultFrom, Min: 0, Max: p.Nodes, Step: 1})
}

// Mutate implements core.Plugin: like the MAC-corruption plugin, small
// distances flip few mask bits, large distances rewrite the masks. The
// duplication mask flips every time when it is the only mask.
func (p *NetFaults) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	flip := func(mask int64) int64 {
		nbits := 1 + int(distance*3)
		for i := 0; i < nbits; i++ {
			mask ^= 1 << uint(rng.Intn(8))
		}
		return mask
	}
	out := parent
	if p.Corrupt {
		out = out.With(DimCorruptMask, flip(out.GetOr(DimCorruptMask, 0)))
	}
	if p.Dup && (!p.Corrupt || distance > 0.5 || rng.Float64() < 0.25) {
		out = out.With(DimDupMask, flip(out.GetOr(DimDupMask, 0)))
	}
	if rng.Float64() < 0.2 {
		out = out.With(DimNetFaultFrom, out.GetOr(DimNetFaultFrom, 0)+ScaledDelta(distance, p.Nodes, rng))
	}
	return out
}
