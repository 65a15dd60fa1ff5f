// Package snap is the snapcover analyzer's fixture: types with a
// Snapshot/Restore pair whose coverage is deliberately incomplete, two of
// them keeping their state in an embedded state struct. Deleting a field
// from Restore (or adding a new mutable field without touching the pair)
// must produce a finding here.
package snap

// Node mimics a protocol state machine that forks via Snapshot/Restore.
type Node struct {
	term int
	log  []int
	// scratch is mutated at runtime and covered by neither method.
	scratch []int // want "covered by neither"
	// dropped is captured but missing from Restore.
	dropped int // want "never restored"
	// refilled is written by Restore but never captured.
	refilled int // want "never captured"
	//avdlint:derived rebuilt lazily from log; forks may safely drop it
	cache map[int]int
	// cfg is set once by New and never mutated: no finding.
	cfg int
}

// New is a constructor: its writes are initialization, not mutation.
func New(cfg int) *Node {
	n := &Node{cfg: cfg, cache: make(map[int]int)}
	n.refilled = cfg
	return n
}

// Step mutates every runtime field.
func (n *Node) Step(x int) {
	n.term++
	n.log = append(n.log, x)
	n.scratch = append(n.scratch, x)
	n.dropped = x
	n.refilled += x
	n.cache[x] = n.cfg
}

// NodeSnap is the captured state.
type NodeSnap struct {
	term    int
	log     []int
	dropped int
}

// Snapshot captures term, log and dropped — but not scratch.
func (n *Node) Snapshot() NodeSnap {
	return NodeSnap{term: n.term, log: append([]int(nil), n.log...), dropped: n.dropped}
}

// Restore rolls back term and log, forgets dropped, and resets refilled
// without a captured source.
func (n *Node) Restore(s NodeSnap) {
	n.term = s.term
	n.log = append(n.log[:0], s.log...)
	n.refilled = 0
}

// peerState is Peer's state struct: the pair copies it whole, which
// covers each of its fields.
type peerState struct {
	term int
	log  []int
}

// Peer keeps its mutable state in an embedded state struct.
type Peer struct {
	peerState
	// outside is mutated at runtime but declared outside the state
	// struct, and the pair never touches it.
	outside int // want "covered by neither"
	cfg     int
}

// Step mutates the state struct's fields and outside.
func (p *Peer) Step(x int) {
	p.term++
	p.log = append(p.log, x)
	p.outside = x
}

// PeerSnap is Peer's state by value.
type PeerSnap struct{ peerState }

// Snapshot copies the state struct whole and clones its slice.
func (p *Peer) Snapshot() PeerSnap {
	s := PeerSnap{p.peerState}
	s.log = append([]int(nil), p.log...)
	return s
}

// Restore copies the state struct back, the slice into p's own memory.
func (p *Peer) Restore(s PeerSnap) {
	log := p.log
	p.peerState = s.peerState
	p.log = append(log[:0], s.log...)
}

// halfState is Half's state struct, captured whole but restored by field.
type halfState struct {
	term int
	vote int // want "never restored"
}

// Half restores only one field of its state struct.
type Half struct{ halfState }

// Step mutates both fields.
func (h *Half) Step(x int) {
	h.term++
	h.vote = x
}

// Snapshot copies the state struct whole.
func (h *Half) Snapshot() halfState { return h.halfState }

// Restore forgets vote.
func (h *Half) Restore(s halfState) { h.term = s.term }
