// Package plugin provides AVD's testing-tool plugins (§3, §5 of the
// paper). Each constructor returns a core.Plugin value: the hyperspace
// dimensions of one testing tool and its mutation rule for the
// controller's mutateDistance, where a small distance makes the smallest
// meaningful change (a Gray-code neighbor, an adjacent call number, one
// client more) and a large distance jumps far. The package also arms the
// shared fault axes on a deployment (ArmFaults).
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

// MACMaskBits is the width of the MAC-corruption mask (12 in the paper).
const MACMaskBits = 12

// NewMACCorrupt returns the MAC-corruption fault-injection plugin of §6.
// Its single dimension is the 12-bit hyperspace coordinate; the PBFT
// deployment arms the Gray encoding of the coordinate as the injector
// bitmask, so that stepping the coordinate by one flips exactly one mask
// bit. Mutate steps the coordinate by a distance-scaled amount, wrapping
// at the axis edges ("a small mutateDistance entails choosing a
// neighboring value").
func NewMACCorrupt() core.Plugin {
	return core.Plugin{
		Name: "maccorrupt",
		Dims: []scenario.Dimension{{Name: DimMACMask, Min: 0, Max: 1<<MACMaskBits - 1, Step: 1}},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			coord := parent.GetOr(DimMACMask, 0)
			delta := ScaledDelta(distance, 1<<(MACMaskBits-1), rng)
			next := graycode.Step(uint64(coord), MACMaskBits, delta)
			return parent.With(DimMACMask, int64(next))
		},
	}
}

// NewClients returns the deployment-shape dimensions of the PBFT
// experiment: how many correct clients connect (10..250 step 10) and how
// many malicious clients (1 or 2). Both axes are structural: the cluster
// harness keys its masters and baselines on exactly this pair
// (cluster.populationOf). Small distances nudge the correct-client count
// by one step; large distances jump across the range and may flip the
// malicious-client count.
func NewClients() core.Plugin {
	const minCorrect, minMalicious, maxMalicious = 10, 1, 2
	correct := scenario.Dimension{Name: DimCorrectClients, Min: minCorrect, Max: 250, Step: 10, Structural: true}
	return core.Plugin{
		Name: "clients",
		Dims: []scenario.Dimension{correct,
			{Name: DimMaliciousClients, Min: minMalicious, Max: maxMalicious, Step: 1, Structural: true}},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			// Strong mutations may change the malicious population too.
			if distance > 0.5 || rng.Float64() < 0.2 {
				cur := parent.GetOr(DimMaliciousClients, minMalicious)
				span := int64(maxMalicious - minMalicious)
				next := minMalicious + (cur-minMalicious+1+rng.Int63n(span))%(span+1)
				parent = parent.With(DimMaliciousClients, next)
			}
			axis := GridOf(parent, correct)
			delta := ScaledDelta(distance, axis.Count()-1, rng)
			cur := parent.GetOr(DimCorrectClients, minCorrect)
			return parent.With(DimCorrectClients, cur+delta*axis.Step)
		},
	}
}

// NewReorder returns the message-reordering tool of §5: it delays a
// fraction of replica-bound traffic to scramble delivery order.
// mutateDistance maps to the edit distance between the original and
// mutated delivery streams: small distances tweak the reordered fraction
// slightly, large distances rewrite both fraction and delay bound.
func NewReorder() core.Plugin {
	return core.Plugin{
		Name: "reorder",
		Dims: []scenario.Dimension{
			{Name: DimReorderPct, Min: 0, Max: 100, Step: 5},
			{Name: DimReorderDelayMS, Min: 0, Max: 50, Step: 5},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			pct := parent.GetOr(DimReorderPct, 0)
			out := parent.With(DimReorderPct, pct+5*ScaledDelta(distance, 20, rng))
			if distance > 0.5 || rng.Float64() < 0.25 {
				delay := out.GetOr(DimReorderDelayMS, 0)
				out = out.With(DimReorderDelayMS, delay+5*ScaledDelta(distance, 10, rng))
			}
			return out
		},
	}
}

// NewFaultPlan returns the library-level fault-injection tool of §5
// (LFI-style): it drops a run of consecutive sends at a malicious client
// starting at a given call number, on a paper-sized 4096-call axis. Per
// the paper, mutateDistance is reflected in the call number: "a small
// mutateDistance means injecting in a neighboring call".
func NewFaultPlan() core.Plugin {
	const maxCall = 4095
	return core.Plugin{
		Name: "faultplan",
		Dims: []scenario.Dimension{
			{Name: DimDropCall, Min: 0, Max: maxCall, Step: 1},
			{Name: DimDropLen, Min: 0, Max: 16, Step: 1},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			call := parent.GetOr(DimDropCall, 0)
			out := parent.With(DimDropCall, call+ScaledDelta(distance, maxCall/2, rng))
			if distance > 0.5 || rng.Float64() < 0.25 {
				n := out.GetOr(DimDropLen, 0)
				out = out.With(DimDropLen, n+ScaledDelta(distance, 8, rng))
			}
			return out
		},
	}
}

// NewSlowPrimary returns the replica-side behavior of §6's second bug: a
// Byzantine primary pacing execution against the view-change timer,
// optionally colluding with a malicious client. Small distances tune the
// pacing interval; large distances flip the behavior switches.
func NewSlowPrimary() core.Plugin {
	return core.Plugin{
		Name: "slowprimary",
		Dims: []scenario.Dimension{
			{Name: DimSlowPrimary, Min: 0, Max: 1, Step: 1},
			{Name: DimCollude, Min: 0, Max: 1, Step: 1},
			{Name: DimSlowIntervalMS, Min: 100, Max: 5000, Step: 100},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
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
		},
	}
}

// --- Fault vocabulary v2 (DESIGN.md §10) -----------------------------------
//
// The plugins below are protocol-neutral: both shipped targets read the
// same dimension names, so the identical plugin widens either the PBFT or
// the Raft hyperspace. Each axis is benign at its minimum (fault off),
// which is what lets core.Minimize walk scenarios toward the
// all-minimums origin.

// NewCrashRestart returns the crash-restart fault plugin: an attacker
// that periodically kills one node (interval 0..1000 ms step 50) and
// brings it back after a down window (0..400 ms step 25), with or without
// its durable state. The lose-state axis is the one the old vocabulary
// cannot express: a node that forgets the vote it granted or the entries
// it acknowledged. Small distances tune the crash cadence, larger ones
// also rewrite the down window; the lose-state bit flips rarely (it
// halves the search space when it matters at all).
func NewCrashRestart() core.Plugin {
	const maxIntervalMS, maxDownMS = 1000, 400
	return core.Plugin{
		Name: "crashrestart",
		Dims: []scenario.Dimension{
			{Name: DimCrashIntervalMS, Min: 0, Max: maxIntervalMS, Step: 50},
			{Name: DimCrashDownMS, Min: 0, Max: maxDownMS, Step: 25},
			{Name: DimCrashLose, Min: 0, Max: 1, Step: 1},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			interval := parent.GetOr(DimCrashIntervalMS, 0)
			out := parent.With(DimCrashIntervalMS, interval+50*ScaledDelta(distance, maxIntervalMS/100, rng))
			if distance > 0.5 || rng.Float64() < 0.25 {
				down := out.GetOr(DimCrashDownMS, 0)
				out = out.With(DimCrashDownMS, down+25*ScaledDelta(distance, maxDownMS/50, rng))
			}
			if rng.Float64() < 0.25 {
				out = out.With(DimCrashLose, 1-out.GetOr(DimCrashLose, 0))
			}
			return out
		},
	}
}

// NewClockSkew returns the per-node clock-drift plugin for an n-node
// cluster: one node's timers run fast or slow relative to its peers, by
// up to 50% in 100-permille steps, entering premature-election (fast
// follower) and stale-leader (slow heartbeats) schedules into the search
// space.
func NewClockSkew(nodes int64) core.Plugin {
	const maxPermille = 500
	return core.Plugin{
		Name: "clockskew",
		Dims: []scenario.Dimension{
			{Name: DimSkewNode, Min: 0, Max: nodes, Step: 1},
			{Name: DimSkewPermille, Min: 0, Max: maxPermille, Step: 100},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			out := parent.With(DimSkewPermille,
				parent.GetOr(DimSkewPermille, 0)+100*ScaledDelta(distance, maxPermille/100, rng))
			if distance > 0.5 || rng.Float64() < 0.25 {
				out = out.With(DimSkewNode, out.GetOr(DimSkewNode, 0)+ScaledDelta(distance, nodes, rng))
			}
			return out
		},
	}
}

// NewOneWay returns the asymmetric-partition plugin for an n-node
// cluster: it severs one direction of a victim's links — the fault
// symmetric partitions and flaps cannot express, because a node that can
// send but not receive (or the reverse) behaves unlike an isolated one.
func NewOneWay(nodes int64) core.Plugin {
	return core.Plugin{
		Name: "oneway",
		Dims: []scenario.Dimension{
			{Name: DimOneWayVictim, Min: 0, Max: nodes, Step: 1},
			{Name: DimOneWayDir, Min: 0, Max: 1, Step: 1},
		},
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			out := parent.With(DimOneWayVictim,
				parent.GetOr(DimOneWayVictim, 0)+ScaledDelta(distance, nodes, rng))
			if rng.Float64() < 0.25 {
				out = out.With(DimOneWayDir, 1-out.GetOr(DimOneWayDir, 0))
			}
			return out
		},
	}
}

// NewNetFaults returns the message corruption/duplication plugin for an
// n-node cluster: deterministic ModMask schedules over the sends of one
// (or any) node, routed through the simnet link-fault layer and the
// faultinject ActCorrupt action. corrupt and dup select the 8-bit mask
// axes it exposes; an absent axis reads as mask 0, which arms nothing.
// Like the MAC-corruption plugin, small distances flip few mask bits,
// large distances rewrite the masks. The duplication mask flips every
// time when it is the only mask.
func NewNetFaults(nodes int64, corrupt, dup bool) core.Plugin {
	var dims []scenario.Dimension
	if corrupt {
		dims = append(dims, scenario.Dimension{Name: DimCorruptMask, Min: 0, Max: 255, Step: 1})
	}
	if dup {
		dims = append(dims, scenario.Dimension{Name: DimDupMask, Min: 0, Max: 255, Step: 1})
	}
	return core.Plugin{
		Name: "netfaults",
		Dims: append(dims, scenario.Dimension{Name: DimNetFaultFrom, Min: 0, Max: nodes, Step: 1}),
		Mutate: func(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
			flip := func(mask int64) int64 {
				nbits := 1 + int(distance*3)
				for i := 0; i < nbits; i++ {
					mask ^= 1 << uint(rng.Intn(8))
				}
				return mask
			}
			out := parent
			if corrupt {
				out = out.With(DimCorruptMask, flip(out.GetOr(DimCorruptMask, 0)))
			}
			if dup && (!corrupt || distance > 0.5 || rng.Float64() < 0.25) {
				out = out.With(DimDupMask, flip(out.GetOr(DimDupMask, 0)))
			}
			if rng.Float64() < 0.2 {
				out = out.With(DimNetFaultFrom, out.GetOr(DimNetFaultFrom, 0)+ScaledDelta(distance, nodes, rng))
			}
			return out
		},
	}
}
