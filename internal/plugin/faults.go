package plugin

import (
	"time"

	"avd/internal/faultinject"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// FaultNode is one protocol node as the fault axes address it: node k of
// a scenario coordinate is Nodes[k-1].
type FaultNode struct {
	Addr  simnet.Addr
	Clock int // the node's sim.Engine clock id
}

// FaultSite is what arming the fault-vocabulary-v2 axes (DESIGN.md §10)
// needs from a deployment. A target fills one in at construction and
// passes it to ArmFaults at every measurement start.
type FaultSite struct {
	Eng   *sim.Engine
	Net   *simnet.Network
	Obs   *oracle.Model // receives crash/restart markers for the coverage timeline
	Nodes []FaultNode

	// PickVictim chooses the node the crash-restart attacker strikes next,
	// -1 for none: the protocol's highest-value live target, with
	// round-robin from strikes as the fallback. It must be deterministic.
	PickVictim func(strikes uint64) int
	// Crash takes a node down, with or without its durable state, and
	// reports whether the fault took effect; Restart brings it back.
	Crash   func(node int, keepDurable bool) bool
	Restart func(node int)
	// Corrupt garbles one protocol message for the link-corruption axis.
	Corrupt simnet.Corrupter
}

// ArmFaults activates the scenario's crash-restart, clock-skew, one-way
// partition and link corruption/duplication faults. Every axis is off at
// its minimum, so a scenario without them arms nothing.
func ArmFaults(sc scenario.Scenario, s *FaultSite) {
	crashInterval := time.Duration(sc.GetOr(DimCrashIntervalMS, 0)) * time.Millisecond
	crashDown := time.Duration(sc.GetOr(DimCrashDownMS, 0)) * time.Millisecond
	if crashInterval > 0 && crashDown > 0 {
		a := &crashRestart{
			site: s, interval: crashInterval, down: crashDown,
			lose: sc.GetOr(DimCrashLose, 0) != 0, victim: -1,
		}
		s.Eng.Schedule(a.interval, a.strike)
	}
	if v := sc.GetOr(DimSkewNode, 0); v > 0 && int(v) <= len(s.Nodes) {
		if pm := sc.GetOr(DimSkewPermille, 0); pm != 0 {
			s.Eng.SetSkew(s.Nodes[v-1].Clock, int32(pm))
		}
	}
	if v := sc.GetOr(DimOneWayVictim, 0); v > 0 && int(v) <= len(s.Nodes) {
		victim := s.Nodes[v-1].Addr
		outbound := sc.GetOr(DimOneWayDir, 0) != 0
		for _, n := range s.Nodes {
			if n.Addr == victim {
				continue
			}
			if outbound {
				s.Net.Block(victim, n.Addr)
			} else {
				s.Net.Block(n.Addr, victim)
			}
		}
	}
	corruptMask := sc.GetOr(DimCorruptMask, 0)
	dupMask := sc.GetOr(DimDupMask, 0)
	if corruptMask != 0 || dupMask != 0 {
		from := simnet.AnyAddr
		if v := sc.GetOr(DimNetFaultFrom, 0); v > 0 && int(v) <= len(s.Nodes) {
			from = s.Nodes[v-1].Addr
		}
		plan := faultinject.NewPlan(
			faultinject.Rule{
				Point:    simnet.PointLinkCorrupt,
				Trigger:  faultinject.ModMask{Mask: uint64(corruptMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
			faultinject.Rule{
				Point:    simnet.PointLinkDup,
				Trigger:  faultinject.ModMask{Mask: uint64(dupMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
		)
		s.Net.ArmLinkFaults(from, simnet.AnyAddr, plan, s.Corrupt)
	}
}

// crashRestart is the crash-restart attacker: every interval tick it
// picks a victim, takes it down, and schedules the restart after the down
// window. At most one injected crash is outstanding at a time.
type crashRestart struct {
	site     *FaultSite
	interval time.Duration
	down     time.Duration
	lose     bool // take the durable state with it
	victim   int  // node currently down from an injected crash, -1 when none
	strikes  uint64
}

func (a *crashRestart) strike() {
	if a.victim < 0 {
		if v := a.site.PickVictim(a.strikes); v >= 0 && a.site.Crash(v, !a.lose) {
			a.victim = v
			a.strikes++
			a.site.Obs.Observe(oracle.Event{Kind: oracle.EventCrash, Node: v})
			a.site.Eng.Schedule(a.down, a.restart)
		}
	}
	a.site.Eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) restart() {
	if a.victim < 0 {
		return
	}
	a.site.Restart(a.victim)
	a.site.Obs.Observe(oracle.Event{Kind: oracle.EventRestart, Node: a.victim})
	a.victim = -1
}
