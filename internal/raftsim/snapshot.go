package raftsim

import (
	"time"

	"avd/internal/sim"
	"avd/internal/slab"
)

// This file implements the SUT side of snapshot/fork execution
// (DESIGN.md §14): a Node or Client captures every mutable field it owns —
// protocol state, counters, and its sim.Timer handles — and can roll
// itself back to that capture. Timer handles survive because the engine's
// own Restore revalidates the arena generations they reference; the
// pending timer events themselves live in the engine snapshot.

// NodeState is a restorable capture of one Raft node.
type NodeState struct {
	crashed     bool
	role        role
	term        uint64
	votedFor    int
	leader      int
	log         []Entry
	commit      uint64
	applied     uint64
	votes       uint64
	replicating uint64
	nextIndex   []uint64
	matchIndex  []uint64
	termStart   uint64

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer

	lastSeq []uint64
	pending []uint64

	stats NodeStats
}

// Snapshot captures the node's complete mutable state and parks the
// node. The capture keeps the log array itself: messages in flight now —
// delivered again after every Restore — alias it (Node.shared), so
// nothing may write to it again. Each Restore runs on a copy. The arrays
// the warm-up retired may be aliased the same way, so they are not
// stocked: their Borrows are settled, and the collector takes each array
// when its last message is gone.
func (n *Node) Snapshot() *NodeState {
	s := &NodeState{
		crashed:        n.crashed,
		role:           n.role,
		term:           n.term,
		votedFor:       n.votedFor,
		leader:         n.leader,
		log:            n.log,
		commit:         n.commit,
		applied:        n.applied,
		votes:          n.votes,
		replicating:    n.replicating,
		nextIndex:      append([]uint64(nil), n.nextIndex...),
		matchIndex:     append([]uint64(nil), n.matchIndex...),
		termStart:      n.termStart,
		electionTimer:  n.electionTimer,
		heartbeatTimer: n.heartbeatTimer,
		lastSeq:        append([]uint64(nil), n.lastSeq...),
		pending:        append([]uint64(nil), n.pending...),
		stats:          n.stats,
	}
	n.log, n.shared = nil, 0
	n.dropRetired(0)
	return s
}

// Park ends a run: the log's backing array — grown all window long, and
// rebuilt from the snapshot by the next Restore anyway — and the first
// array truncate retired go back to the Runner's scratch stock, so a parked
// master retains no log the window made. Only the window's messages can
// alias them (the captured array stays with Snapshot), and they die with
// the window. The other retired arrays go to the collector: stocking
// them all would keep the most any one window of a truncation storm ever
// retired for the life of the process, while one per node covers the
// step-downs of an ordinary window.
func (n *Node) Park() {
	n.dropRetired(1)
	if n.log != nil {
		slab.Return(n.mem.pool, n.log)
		n.log = nil
	}
}

// dropRetired empties the retired list without keeping its arrays alive:
// the first keep of them go to the scratch stock, and the Borrows of the
// rest are settled with nothing stocked.
func (n *Node) dropRetired(keep int) {
	for i, r := range n.retired {
		if i >= keep {
			r = nil
		}
		slab.Return(n.mem.pool, r)
	}
	clear(n.retired)
	n.retired = n.retired[:0]
}

// Restore rolls a parked node back to the captured state.
func (n *Node) Restore(s *NodeState) {
	n.crashed = s.crashed
	n.role = s.role
	n.term = s.term
	n.votedFor = s.votedFor
	n.leader = s.leader
	n.log = append(slab.BorrowLargest[Entry](n.mem.pool), s.log...)
	n.shared = 0 // a copy no message has seen
	n.commit = s.commit
	n.applied = s.applied
	n.votes = s.votes
	n.replicating = s.replicating
	n.nextIndex = append(n.nextIndex[:0], s.nextIndex...)
	n.matchIndex = append(n.matchIndex[:0], s.matchIndex...)
	n.termStart = s.termStart
	n.electionTimer = s.electionTimer
	n.heartbeatTimer = s.heartbeatTimer
	n.lastSeq = append(n.lastSeq[:0], s.lastSeq...)
	n.pending = append(n.pending[:0], s.pending...)
	n.stats = s.stats
}

// ClientState is a restorable capture of one Raft client.
type ClientState struct {
	running  bool
	seq      uint64
	target   int
	sentAt   sim.Time
	curRetry time.Duration
	retryFor uint64
	retry    sim.Timer
	stats    ClientStats
}

// Snapshot captures the client's complete mutable state.
func (c *Client) Snapshot() *ClientState {
	return &ClientState{
		running:  c.running,
		seq:      c.seq,
		target:   c.target,
		sentAt:   c.sentAt,
		curRetry: c.curRetry,
		retryFor: c.retryFor,
		retry:    c.retry,
		stats:    c.stats,
	}
}

// Restore rolls the client back to the captured state.
func (c *Client) Restore(s *ClientState) {
	c.running = s.running
	c.seq = s.seq
	c.target = s.target
	c.sentAt = s.sentAt
	c.curRetry = s.curRetry
	c.retryFor = s.retryFor
	c.retry = s.retry
	c.stats = s.stats
}
