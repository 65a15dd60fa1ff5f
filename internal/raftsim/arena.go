package raftsim

import (
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Arena is the message memory of one Raft deployment: every wire message
// a node or client sends — vote requests and replies, append batches,
// client requests and replies — is carved from these slabs (see package
// slab) instead of being a fresh heap allocation. The entries an append
// batch carries are not here: they alias the sender's log (Node.shared).
// One arena serves the whole deployment; the harness owns its
// capture/rewind cycle through the slab.Arena the slabs were created
// from.
//
// Every message with one recipient — vote replies, append batches and
// their acks, client requests and replies — is sent with SendOwned and
// carries a slab.Holders count of one, the delivery's; a dup fault adds
// the duplicate's, and the last delivery to run puts the message back.
// The broadcast RequestVote counts nothing and stays carved until the
// rewind.
type Arena struct {
	mem           *slab.Arena
	votes         *slab.Slab[RequestVote]
	voteReplies   *slab.Slab[RequestVoteReply]
	appends       *slab.Slab[AppendEntries]
	appendReplies *slab.Slab[AppendEntriesReply]
	requests      *slab.Slab[ClientRequest]
	replies       *slab.Slab[ClientReply]
	// pool stocks the nodes' log buffers between runs (Node.Park).
	pool *slab.Pool
}

// NewArena creates the deployment's message slabs in mem.
func NewArena(mem *slab.Arena) *Arena {
	return &Arena{
		mem:           mem,
		votes:         slab.New[RequestVote](mem),
		voteReplies:   slab.New[RequestVoteReply](mem),
		appends:       slab.New[AppendEntries](mem),
		appendReplies: slab.New[AppendEntriesReply](mem),
		requests:      slab.New[ClientRequest](mem),
		replies:       slab.New[ClientReply](mem),
		pool:          mem.Pool(),
	}
}

// share starts the count of a message its one delivery holds.
func (a *Arena) share(h *slab.Holders) { a.mem.Share(h, 1) }

// holdersOf returns a counted message's count, nil for anything else.
func holdersOf(payload any) *slab.Holders {
	switch m := payload.(type) {
	case *AppendEntries:
		return &m.holders
	case *AppendEntriesReply:
		return &m.holders
	case *ClientRequest:
		return &m.holders
	case *ClientReply:
		return &m.holders
	case *RequestVoteReply:
		return &m.holders
	}
	return nil
}

// Hold is the deployment's simnet.Owner side of a duplicated delivery.
func (a *Arena) Hold(payload any) {
	if h := holdersOf(payload); h != nil {
		a.mem.Hold(h)
	}
}

// Release is the deployment's simnet.Owner side of a delivery whose
// handler has returned: its hold is dropped, and the last one puts the
// message back.
func (a *Arena) Release(payload any) {
	switch m := payload.(type) {
	case *AppendEntries:
		if a.mem.Drop(&m.holders) {
			a.appends.Put(m)
		}
	case *AppendEntriesReply:
		if a.mem.Drop(&m.holders) {
			a.appendReplies.Put(m)
		}
	case *ClientRequest:
		if a.mem.Drop(&m.holders) {
			a.requests.Put(m)
		}
	case *ClientReply:
		if a.mem.Drop(&m.holders) {
			a.replies.Put(m)
		}
	case *RequestVoteReply:
		if a.mem.Drop(&m.holders) {
			a.voteReplies.Put(m)
		}
	}
}

// Corrupt is the raft target's simnet.Corrupter: it garbles a protocol
// message. Corruptions perturb protocol claims — log-state
// advertisements, consistency-check coordinates, vote/ack verdicts —
// rather than forging identities, modelling bit rot the transport failed
// to catch. Client traffic is left alone (it has its own fault tools). An
// append reply's verdict flips to a reject and it keeps its PrevLogIndex
// and LastLogIndex, so a garbled ack rejects the very append it answers
// (DESIGN.md §11 has what the leader makes of such a reject).
//
// A message whose one delivery is its only holder (a fresh single-
// recipient message, the common case) is garbled in place and stays
// owned; anything else — the broadcast RequestVote, or a message carved
// before the capture, which every fork delivers again — is copied, and
// the copy counts nothing.
func (a *Arena) Corrupt(from, to simnet.Addr, payload any) any {
	switch m := payload.(type) {
	case *RequestVote:
		c := *m
		c.LastLogIndex ^= 1
		c.LastLogTerm ^= 1
		return &c
	case *RequestVoteReply:
		if !a.mem.Sole(&m.holders) {
			c := *m
			c.holders, m = slab.Holders{}, &c
		}
		m.Granted = false
		return m
	case *AppendEntries:
		if !a.mem.Sole(&m.holders) {
			c := *m
			c.holders, m = slab.Holders{}, &c
		}
		m.PrevLogIndex ^= 1
		m.PrevLogTerm ^= 1
		return m
	case *AppendEntriesReply:
		if !a.mem.Sole(&m.holders) {
			c := *m
			c.holders, m = slab.Holders{}, &c
		}
		m.Success = false
		m.MatchIndex = 0
		return m
	}
	return nil
}

// newPrivateArena backs a node or client constructed without a
// deployment arena (unit tests wiring a cluster by hand): it is never
// rewound and simply grows.
func newPrivateArena() *Arena { return NewArena(slab.NewArena(nil, nil)) }
