package pbft

import (
	"slices"

	"avd/internal/faultinject"
	"avd/internal/slab"
)

// This file implements the SUT side of snapshot/fork execution
// (DESIGN.md §12, §14) for the PBFT deployment. A replica keeps what it
// changes as it runs in one replicaState, and a client in one
// clientState: a capture is that struct by value with every table
// cloned, and a restore copies it back, the tables into the memory the
// replica or client already has. Messages (requests, votes, replies,
// view changes) are immutable once constructed, so captures share their
// pointers; sim.Timer handles survive restore because the engine
// revalidates the arena generations they reference. Restore is the
// per-fork hot path, and in the steady state it allocates nothing.

// ReplicaState is a restorable capture of one replica.
type ReplicaState struct {
	replicaState
	// pendingBuf is the pending buffer's own backing array at capture
	// time, which predates the arena mark: Restore copies pending back
	// into it, and whatever the window appends beyond its capacity is
	// arena memory.
	pendingBuf []*Request
}

// Snapshot captures the replica's complete mutable state. The replica's
// ByzantineBehavior pointer is deployment-owned and not captured: the
// harness re-arms (or zeroes) it per run.
func (r *Replica) Snapshot() *ReplicaState {
	s := &ReplicaState{replicaState: r.replicaState, pendingBuf: r.pending[:0]}
	s.log = slices.Clone(r.log)
	s.votes = slices.Clone(r.votes)
	s.pending = slices.Clone(r.pending)
	s.admitted = slices.Clone(r.admitted)
	s.lastReply = slices.Clone(r.lastReply)
	s.pendingForwarded = r.pendingForwarded.clone()
	s.reqTimers = r.reqTimers.clone()
	s.checkpoints = slices.Clone(r.checkpoints)
	s.viewChanges = slices.Clone(r.viewChanges)
	return s
}

// Restore rolls a parked replica back to the captured state. The
// deployment has already rewound the shared message arena: the window's
// objects are garbage, and everything restored below predates the capture
// mark. The tables a window grows — the log, its vote digests, the
// last-reply table and the forwarded requests' slots — are borrowed from
// the pool (see Park); the rest is copied into the replica's own memory.
func (r *Replica) Restore(s *ReplicaState) {
	own := r.replicaState
	r.replicaState = s.replicaState
	pool := r.mem.mem.Pool()
	r.log = append(slab.BorrowLargest[logEntry](pool), s.log...)
	r.votes = append(slab.BorrowLargest[uint64](pool), s.votes...)
	r.pending = append(s.pendingBuf[:0], s.pending...)
	r.admitted = refill(own.admitted, s.admitted)
	r.lastReply = append(slab.BorrowLargest[lastReply](pool), s.lastReply...)
	r.pendingForwarded = byClient[forwarded]{
		slots: append(slab.BorrowLargest[keyed[forwarded]](pool), s.pendingForwarded.slots...),
		more:  refill(own.pendingForwarded.more, s.pendingForwarded.more),
		n:     s.pendingForwarded.n,
	}
	r.reqTimers = own.reqTimers.refill(s.reqTimers)
	r.checkpoints = refill(own.checkpoints, s.checkpoints)
	r.viewChanges = refill(own.viewChanges, s.viewChanges)
	r.borrowed = true
}

// Park ends a run: the tables Restore borrowed go back to the pool's
// scratch stock, since the next Restore rebuilds them from the snapshot,
// so a parked master keeps only its capture and one set of tables per
// concurrent run serves every master. The log and the slots are cleared
// first: their entries hold batches, pre-prepares and requests. Park is
// idempotent, and only Restore may follow it.
func (r *Replica) Park() {
	if !r.borrowed {
		return
	}
	pool := r.mem.mem.Pool()
	clear(r.log[:cap(r.log)])
	slab.Return(pool, r.log)
	slab.Return(pool, r.votes)
	slab.Return(pool, r.lastReply)
	slots := r.pendingForwarded.slots
	clear(slots[:cap(slots)])
	slab.Return(pool, slots)
	r.log, r.votes, r.lastReply, r.pendingForwarded.slots = nil, nil, nil, nil
	r.borrowed = false
}

// Parked reports whether the replica holds none of the tables Restore
// borrows, as after Park.
func (r *Replica) Parked() bool {
	return r.log == nil && r.votes == nil && r.lastReply == nil && r.pendingForwarded.slots == nil
}

// ApplyByzantine (re-)activates the replica's ByzantineBehavior after
// its fields were changed by the deployment harness: it fills in the
// slow-proposal interval default and starts the pacing timer when the
// replica is currently a slow primary. The harness calls this at
// measurement start — on a master's first run and on every later fork
// alike — so attacks arm identically in both.
func (r *Replica) ApplyByzantine() {
	if r.byz == nil {
		return
	}
	if r.byz.SlowPrimary && r.byz.SlowInterval <= 0 {
		r.byz.SlowInterval = r.cfg.ViewChangeTimeout * 9 / 10
	}
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
}

// ClientState is a restorable capture of one client.
type ClientState struct{ clientState }

// Snapshot captures the client's complete mutable state, including its
// generateMAC call counter and the schedule armed on it.
func (c *Client) Snapshot() *ClientState {
	s := &ClientState{c.clientState}
	s.replies = slices.Clone(c.replies)
	return s
}

// Restore rolls the client back to the captured state.
func (c *Client) Restore(s *ClientState) {
	replies := c.replies
	c.clientState = s.clientState
	c.replies = replies
	copy(c.replies, s.replies)
}

// SetPlan arms the plan's rules on PointGenerateMAC, keeping the call
// count that has been advancing since deployment boot.
func (c *Client) SetPlan(plan faultinject.Plan) { c.mac.Arm(plan, PointGenerateMAC) }

// SetBroadcast toggles first-transmission broadcast (the colluding
// client of the slow-primary attack); harnesses arm it per run at
// measurement start.
func (c *Client) SetBroadcast(on bool) { c.broadcast = on }
