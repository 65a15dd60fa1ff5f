// Package simnet provides a simulated message-passing network on top of
// the sim discrete-event engine.
//
// The network delivers opaque payloads between node addresses with
// configurable one-way latency, jitter, and loss; supports partitions; and
// exposes an interceptor chain through which AVD's testing tools exercise
// the control the paper grants attackers over the network ("attackers can
// be assumed to exercise some sort of control over the network", §2):
// dropping, delaying, reordering or mutating messages in flight.
package simnet

import (
	"fmt"
	"time"

	"avd/internal/faultinject"
	"avd/internal/sim"
)

// Addr identifies a node on the network.
type Addr int

// String formats the address.
func (a Addr) String() string { return fmt.Sprintf("node%d", int(a)) }

// Handler receives a delivered message. Handlers run on the engine
// goroutine; they may send messages and schedule timers but must not block.
type Handler func(from Addr, payload any)

// Message is a message being sent, as the interceptors see it before its
// delivery is scheduled. Interceptors may mutate Payload and ExtraDelay
// but must not retain the *Message beyond Intercept: a network has one,
// which every send reuses. What is in flight is not a Message but a
// delivery the engine holds by value: the payload and a meta word with the
// addresses and the owned flag (see meta).
type Message struct {
	From    Addr
	To      Addr
	Payload any
	// ExtraDelay is added to the link latency; interceptors add here to
	// delay (and thereby reorder) traffic.
	ExtraDelay time.Duration
}

// Verdict is an interceptor's ruling on a message.
type Verdict int

// Verdicts. VerdictDeliver passes the message on (possibly mutated);
// VerdictDrop discards it silently.
const (
	VerdictDeliver Verdict = iota + 1
	VerdictDrop
)

// Interceptor inspects (and may mutate) every message sent through the
// network. Interceptors run in registration order; the first VerdictDrop
// wins.
type Interceptor interface {
	Intercept(m *Message) Verdict
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(m *Message) Verdict

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(m *Message) Verdict { return f(m) }

// Config holds network-wide parameters. The zero value is a perfect
// network: zero latency, no jitter, no loss.
type Config struct {
	// BaseLatency is the one-way delivery latency of every link.
	BaseLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message;
	// nonzero jitter therefore reorders messages on a link.
	Jitter time.Duration
	// DropRate is the probability in [0,1] that a message is lost.
	DropRate float64
}

// Stats counts network activity since creation. The conservation
// invariant (TestLinkFaultStatsConservation, TestStatsConservationMidTrain) is
//
//	Sent + Duplicated == Delivered + Dropped + Partitioned + in-flight
//
// Corrupted is orthogonal: a garbled message still flows through the
// normal delivery pipeline, so a corrupt-then-dropped message counts
// exactly once in Corrupted and exactly once in Dropped.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64 // by DropRate or interceptor verdicts
	Partitioned uint64 // blocked by a partition
	Corrupted   uint64 // payloads garbled in flight by link faults
	Duplicated  uint64 // extra copies injected by link faults
}

// Network is a simulated network. It is not safe for concurrent use; all
// calls must happen on the engine goroutine.
type Network struct {
	eng *sim.Engine
	cfg Config
	// handlers is indexed by Addr: node addresses are small and dense,
	// and the per-delivery lookup is hot enough that a map showed up in
	// deployment profiles.
	//avdlint:derived deployment wiring: Register runs during cluster build, before the first snapshot
	handlers []Handler
	//avdlint:derived deployment wiring: SetOwner runs during cluster build, before the first snapshot
	owner        Owner
	interceptors []Interceptor
	blocked      map[linkKey]bool
	// blockedEnds counts, by address, the blocked links leaving and
	// entering it. A send or delivery looks its link up in blocked only
	// when its sender has a blocked link out and its receiver one in, so
	// every client's traffic, and under a one-way partition all but the
	// victim's side of it, never hashes a linkKey.
	//avdlint:derived Block, Unblock and Restore keep it the count of blocked's keys
	blockedEnds []linkEnds
	stats       Stats
	closed      bool

	// Dirty tracking for delta Restore, mirroring sim.Engine: track is
	// the snapshot deltas are recorded against and linksDirty records
	// whether the partition map was touched since it was taken.
	// Counters and the interceptor chain are cheap to roll back
	// unconditionally; the map is not, and most forks never touch it
	// (network faults arm via interceptors).
	track      *NetSnapshot
	linksDirty bool

	// lf holds the armed per-link corruption/duplication faults; zero
	// value means disarmed (one bool check per send).
	lf linkFaults

	// view is the Message every send shows the interceptors.
	//avdlint:ephemeral send-scoped: filled before the interceptors run and its payload dropped after
	view Message
	// deliveries is the engine stream in-flight messages ride: one pre-bound
	// callback, and one queue event per instant rather than per message.
	deliveries *sim.Stream
}

type linkKey struct{ from, to Addr }

// linkEnds counts the blocked links out of and into one address.
type linkEnds struct{ out, in int32 }

// AnyAddr wildcards one side of a link-fault victim selector.
const AnyAddr Addr = -1

// Injection points consulted per matching send by armed link faults. A
// call PointLinkCorrupt's schedule hits garbles the payload through the
// armed Corrupter; a call PointLinkDup's schedule hits injects a
// duplicate delivery.
const (
	PointLinkCorrupt = "link.corrupt"
	PointLinkDup     = "link.dup"
)

// Corrupter rewrites a payload into a garbled variant. It must return a
// new value — payload objects are shared with the sender and with every
// fork that delivers them again, so mutating in place would corrupt the
// past — unless the delivery being sent is the payload's only holder
// (slab.Arena.Sole): then it may garble the payload in place and return
// it, and the delivery still owns it. Returning nil declines (the message
// is delivered untouched and not counted).
type Corrupter func(from, to Addr, payload any) any

// Owner is the deployment's side of payload ownership (DESIGN.md §15). A
// payload sent with SendOwned or BroadcastOwned carries a holder count the
// sender started at the number of deliveries it sends plus whatever the
// sender keeps; each such delivery holds one count. Hold adds the count
// of a duplicate the network injects, and Release drops a delivery's
// count once its recipient's handler has returned — the one place the
// network gives a count back. A delivery that is dropped, partitioned,
// unhandled, swapped for another payload or discarded by a restore gives
// nothing back: its count stays taken until the sender's memory is
// reclaimed wholesale.
type Owner interface {
	Hold(payload any)
	Release(payload any)
}

// meta packs what a delivery needs besides its payload into the word the
// engine carries with it: from in the low 32 bits, to in the next 31, and
// sim.Owned on top when the delivery holds one of the payload's counts
// (see Owner). Addresses are handler indices, so to always fits.
func meta(from, to Addr) uint64 { return uint64(uint32(from)) | uint64(to)<<32 }

// linkFaults is the armed per-link fault state: a victim link selector
// (AnyAddr wildcards), the corrupt and dup call counters held by value,
// and the corrupter that knows the target's payload types.
type linkFaults struct {
	armed        bool
	from, to     Addr
	corrupter    Corrupter
	corrupt, dup faultinject.Counter
}

func (lf *linkFaults) matches(from, to Addr) bool {
	return (lf.from == AnyAddr || lf.from == from) && (lf.to == AnyAddr || lf.to == to)
}

// ArmLinkFaults installs deterministic corruption/duplication on the
// directed link from->to (AnyAddr wildcards either side). The plan's
// rules on PointLinkCorrupt and PointLinkDup are consulted once per
// matching send, so call numbering — and therefore the fault schedule —
// is a pure function of the scenario, exactly like the paper's
// MAC-corruption tool. Arming replaces any previously armed faults and
// restarts call numbering; Restore rolls faults back to their state at
// snapshot time.
func (n *Network) ArmLinkFaults(from, to Addr, plan faultinject.Plan, c Corrupter) {
	n.lf = linkFaults{armed: true, from: from, to: to, corrupter: c}
	n.lf.corrupt.Arm(plan, PointLinkCorrupt)
	n.lf.dup.Arm(plan, PointLinkDup)
}

// New returns a network running on eng with the given config.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.DropRate < 0 {
		cfg.DropRate = 0
	}
	if cfg.DropRate > 1 {
		cfg.DropRate = 1
	}
	n := &Network{
		eng:     eng,
		cfg:     cfg,
		blocked: make(map[linkKey]bool),
	}
	n.deliveries = eng.NewStream(n.deliver)
	return n
}

// Engine returns the underlying event engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Handle registers the delivery handler for addr, replacing any previous
// handler. Messages to an address with no handler are counted as dropped.
func (n *Network) Handle(addr Addr, h Handler) {
	for int(addr) >= len(n.handlers) {
		n.handlers = append(n.handlers, nil)
	}
	n.handlers[addr] = h
}

// SetOwner registers the deployment's Owner; without one SendOwned is
// Send and BroadcastOwned is Broadcast.
func (n *Network) SetOwner(o Owner) { n.owner = o }

// AddInterceptor appends an interceptor to the chain.
func (n *Network) AddInterceptor(i Interceptor) {
	n.interceptors = append(n.interceptors, i)
}

// Block severs the directed link from->to until Unblock.
func (n *Network) Block(from, to Addr) {
	n.linksDirty = true
	if k := (linkKey{from, to}); !n.blocked[k] {
		n.blocked[k] = true
		n.countEnds(k, 1)
	}
}

// Unblock restores the directed link from->to.
func (n *Network) Unblock(from, to Addr) {
	n.linksDirty = true
	if k := (linkKey{from, to}); n.blocked[k] {
		delete(n.blocked, k)
		n.countEnds(k, -1)
	}
}

// countEnds adds d to the blocked-link counts of k's two ends.
func (n *Network) countEnds(k linkKey, d int32) {
	for int(max(k.from, k.to)) >= len(n.blockedEnds) {
		n.blockedEnds = append(n.blockedEnds, linkEnds{})
	}
	n.blockedEnds[k.from].out += d
	n.blockedEnds[k.to].in += d
}

// isBlocked reports whether the directed link from->to is severed.
func (n *Network) isBlocked(from, to Addr) bool {
	ends := n.blockedEnds
	return uint(from) < uint(len(ends)) && uint(to) < uint(len(ends)) && ends[from].out > 0 && ends[to].in > 0 &&
		n.blocked[linkKey{from, to}]
}

// BlockPair severs both directions between a and b.
func (n *Network) BlockPair(a, b Addr) {
	n.Block(a, b)
	n.Block(b, a)
}

// UnblockPair restores both directions between a and b.
func (n *Network) UnblockPair(a, b Addr) {
	n.Unblock(a, b)
	n.Unblock(b, a)
}

// Close stops all future deliveries (messages in flight are discarded at
// delivery time).
func (n *Network) Close() { n.closed = true }

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Send transmits payload from->to. Delivery is scheduled after the link
// latency plus jitter plus any interceptor-added delay. Send never blocks.
func (n *Network) Send(from, to Addr, payload any) { n.send(from, to, payload, false) }

// SendOwned is Send for a counted payload (a pointer) whose count includes
// this delivery: the delivery holds it, and the Owner gets the count back
// right after to's handler has returned. A payload nothing else holds is
// the count-of-one case.
func (n *Network) SendOwned(from, to Addr, payload any) {
	n.send(from, to, payload, n.owner != nil)
}

func (n *Network) send(from, to Addr, payload any, owned bool) {
	if n.closed {
		return
	}
	n.stats.Sent++
	if n.isBlocked(from, to) {
		n.stats.Partitioned++
		return
	}
	m := meta(from, to)
	if owned {
		m |= sim.Owned
	}
	var extra time.Duration
	if len(n.interceptors) > 0 {
		v := &n.view
		v.From, v.To, v.Payload, v.ExtraDelay = from, to, payload, 0
		for _, ic := range n.interceptors {
			if ic.Intercept(v) == VerdictDrop {
				n.stats.Dropped++
				v.Payload = nil
				return
			}
		}
		// A payload an interceptor (or, below, the corrupter) swapped for
		// another leaves the delivery owning nothing.
		if v.Payload != payload {
			payload, m = v.Payload, m&^sim.Owned
		}
		extra, v.Payload = v.ExtraDelay, nil
	}
	// Link faults garble before the loss roll, so a corrupt-then-dropped
	// message increments Corrupted and Dropped once each.
	duplicate := false
	if n.lf.armed && n.lf.matches(from, to) {
		if n.lf.corrupt.Check() && n.lf.corrupter != nil {
			if p := n.lf.corrupter(from, to, payload); p != nil {
				if p != payload {
					payload, m = p, m&^sim.Owned
				}
				n.stats.Corrupted++
			}
		}
		duplicate = n.lf.dup.Check()
	}
	if n.cfg.DropRate > 0 && n.eng.Rand().Float64() < n.cfg.DropRate {
		n.stats.Dropped++
		return
	}
	d := n.cfg.BaseLatency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.eng.Rand().Int63n(int64(n.cfg.Jitter)))
	}
	d += extra
	n.deliveries.Schedule(d, payload, m)
	if duplicate {
		// The duplicate rides the same latency and is queued after the
		// original (same at, later seq), so it arrives immediately behind
		// it — the classic at-least-once delivery fault.
		// An owned original makes an owned duplicate: one holder more.
		n.stats.Duplicated++
		if m&sim.Owned != 0 {
			n.owner.Hold(payload)
		}
		n.deliveries.Schedule(d, payload, m)
	}
}

// NetSnapshot is a restorable capture of the network's own state:
// counters, partitions and the interceptor chain length. In-flight
// messages are not here — they are deliveries the engine holds by value,
// and its snapshot copies them; pairing a Network.Snapshot with the
// engine's Snapshot captures the network completely.
type NetSnapshot struct {
	stats        Stats
	blocked      map[linkKey]bool
	interceptors int
	closed       bool
	// lf is the link-fault state; its call counters are values, so the
	// struct copy captures them.
	lf linkFaults
}

// Snapshot captures the network state (excluding the handler table,
// which is structural and never rolled back) and arms delta tracking:
// restoring this snapshot skips the partition map rebuild unless
// something touched it in between.
func (n *Network) Snapshot() *NetSnapshot {
	s := &NetSnapshot{
		stats:        n.stats,
		blocked:      make(map[linkKey]bool, len(n.blocked)),
		interceptors: len(n.interceptors),
		closed:       n.closed,
		lf:           n.lf,
	}
	for k, v := range n.blocked {
		s.blocked[k] = v
	}
	n.track = s
	n.linksDirty = false
	return s
}

// Restore rolls the network back to the snapshot. Interceptors appended
// after the snapshot (per-test fault tooling) are detached; the chain
// prefix must be the snapshot's own interceptors, which Restore cannot
// verify — harnesses only ever append.
func (n *Network) Restore(s *NetSnapshot) {
	n.stats = s.stats
	n.closed = s.closed
	n.lf = s.lf
	if s != n.track || n.linksDirty {
		clear(n.blocked)
		clear(n.blockedEnds)
		//avdlint:allow restore refill: each key sets its own entry and adds to two counts, which commutes
		for k := range s.blocked {
			n.blocked[k] = true
			n.countEnds(k, 1)
		}
		n.track = s
		n.linksDirty = false
	}
	for i := s.interceptors; i < len(n.interceptors); i++ {
		n.interceptors[i] = nil
	}
	n.interceptors = n.interceptors[:s.interceptors]
}

// Broadcast sends payload from->each address in tos (skipping from).
func (n *Network) Broadcast(from Addr, tos []Addr, payload any) {
	n.broadcast(from, tos, payload, false)
}

// BroadcastOwned is Broadcast with every delivery sent as by SendOwned:
// the payload's count includes one holder per address in tos other than
// from.
func (n *Network) BroadcastOwned(from Addr, tos []Addr, payload any) {
	n.broadcast(from, tos, payload, n.owner != nil)
}

func (n *Network) broadcast(from Addr, tos []Addr, payload any, owned bool) {
	for _, to := range tos {
		if to == from {
			continue
		}
		n.send(from, to, payload, owned)
	}
}

func (n *Network) deliver(payload any, m uint64) {
	if n.closed {
		return
	}
	from, to := Addr(int32(m)), Addr(m<<1>>33)
	// Re-check the partition at delivery time: messages in flight when a
	// partition forms are lost, matching the usual fail-stop link model.
	if n.isBlocked(from, to) {
		n.stats.Partitioned++
		return
	}
	var h Handler
	if int(to) < len(n.handlers) {
		h = n.handlers[to]
	}
	if h == nil {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	// The branch comes before the handler so that unowned traffic ends in
	// the call it always ended in, with no flag kept live across it.
	if m&sim.Owned == 0 {
		h(from, payload)
		return
	}
	// The one place a delivery gives its count back: its recipient's
	// handler has returned.
	h(from, payload)
	n.owner.Release(payload)
}
