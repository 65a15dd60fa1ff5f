package raftsim

import (
	"slices"

	"avd/internal/slab"
)

// This file implements the SUT side of snapshot/fork execution
// (DESIGN.md §14): a node keeps what it changes as it runs in one
// nodeState, and a client in one clientState; a capture is that struct by
// value with every table cloned, and a restore copies it back, the tables
// into the memory the node already has. Timer handles survive because the
// engine's own Restore revalidates the arena generations they reference;
// the pending timer events themselves live in the engine snapshot.

// NodeState is a restorable capture of one Raft node.
type NodeState struct{ nodeState }

// Snapshot captures the node's complete mutable state and parks the
// node. The capture keeps the log array itself: messages in flight now —
// delivered again after every Restore — alias it (Node.shared), so
// nothing may write to it again. Each Restore runs on a copy. The arrays
// the warm-up retired may be aliased the same way, so they are not
// stocked: their Borrows are settled, and the collector takes each array
// when its last message is gone.
func (n *Node) Snapshot() *NodeState {
	s := &NodeState{n.nodeState}
	s.nextIndex = slices.Clone(n.nextIndex)
	s.matchIndex = slices.Clone(n.matchIndex)
	s.lastSeq = slices.Clone(n.lastSeq)
	s.pending = slices.Clone(n.pending)
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
	if n.borrowed {
		slab.Return(n.mem.pool, n.log)
		n.log, n.borrowed = nil, false
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
	own := n.nodeState
	n.nodeState = s.nodeState
	n.log = append(slab.BorrowLargest[Entry](n.mem.pool), s.log...)
	n.shared = 0 // a copy no message has seen
	n.borrowed = true
	n.nextIndex = append(own.nextIndex[:0], s.nextIndex...)
	n.matchIndex = append(own.matchIndex[:0], s.matchIndex...)
	n.lastSeq = append(own.lastSeq[:0], s.lastSeq...)
	n.pending = append(own.pending[:0], s.pending...)
}

// ClientState is a restorable capture of one Raft client.
type ClientState struct{ clientState }

// Snapshot captures the client's complete mutable state.
func (c *Client) Snapshot() *ClientState { return &ClientState{c.clientState} }

// Restore rolls the client back to the captured state.
func (c *Client) Restore(s *ClientState) { c.clientState = s.clientState }
