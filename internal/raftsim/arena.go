package raftsim

import "avd/internal/slab"

// Arena is the message memory of one Raft deployment: every wire message
// a node or client sends — vote requests and replies, append batches and
// the log-suffix copies they carry, client requests and replies — is
// carved from these slabs (see package slab) instead of being a fresh
// heap allocation, which used to make sendAppend/onAppendEntries/
// Client.send the top three sites of a campaign allocation profile. One
// arena serves the whole deployment; the harness owns its capture/rewind
// cycle through the slab.Arena the slabs were created from.
type Arena struct {
	votes         *slab.Slab[RequestVote]
	voteReplies   *slab.Slab[RequestVoteReply]
	appends       *slab.Slab[AppendEntries]
	appendReplies *slab.Slab[AppendEntriesReply]
	requests      *slab.Slab[ClientRequest]
	replies       *slab.Slab[ClientReply]
	// entries backs the copy of log[next-1:] each AppendEntries takes
	// (the log's backing array is truncated in place on conflict).
	entries *slab.Span[Entry]
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
		entries:       slab.NewSpan[Entry](mem),
		pool:          mem.Pool(),
	}
}

// newPrivateArena backs a node or client constructed without a
// deployment arena (unit tests wiring a cluster by hand): it is never
// rewound and simply grows.
func newPrivateArena() *Arena { return NewArena(slab.NewArena(nil, nil)) }
