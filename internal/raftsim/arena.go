package raftsim

import "avd/internal/slab"

// Arena is the message memory of one Raft deployment: every wire message
// a node or client sends — vote requests and replies, append batches,
// client requests and replies — is carved from these slabs (see package
// slab) instead of being a fresh heap allocation. The entries an append
// batch carries are not here: they alias the sender's log (Node.shared).
// One arena serves the whole deployment; the harness owns its
// capture/rewind cycle through the slab.Arena the slabs were created
// from.
type Arena struct {
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
		votes:         slab.New[RequestVote](mem),
		voteReplies:   slab.New[RequestVoteReply](mem),
		appends:       slab.New[AppendEntries](mem),
		appendReplies: slab.New[AppendEntriesReply](mem),
		requests:      slab.New[ClientRequest](mem),
		replies:       slab.New[ClientReply](mem),
		pool:          mem.Pool(),
	}
}

// Release is the deployment's simnet.Releaser. Every message with one
// recipient — vote replies, append batches and their acks, client requests
// and replies — is sent with SendOwned and comes back here when its
// delivery has run; the broadcast RequestVote is shared by its recipients
// and stays bump-allocated.
func (a *Arena) Release(payload any) {
	switch m := payload.(type) {
	case *AppendEntries:
		a.appends.Put(m)
	case *AppendEntriesReply:
		a.appendReplies.Put(m)
	case *ClientRequest:
		a.requests.Put(m)
	case *ClientReply:
		a.replies.Put(m)
	case *RequestVoteReply:
		a.voteReplies.Put(m)
	}
}

// newPrivateArena backs a node or client constructed without a
// deployment arena (unit tests wiring a cluster by hand): it is never
// rewound and simply grows.
func newPrivateArena() *Arena { return NewArena(slab.NewArena(nil, nil)) }
