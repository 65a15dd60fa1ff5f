package pbft

import (
	"avd/internal/mac"
	"avd/internal/slab"
)

// Arena is the message memory of one PBFT deployment: every request,
// reply, vote, proposal, forwarded-request record and authenticator
// vector its replicas and clients build is carved from these slabs (see
// package slab). A full-throughput deployment used to allocate one heap
// object per reply per replica, which made the allocator and the garbage
// collector the top sites of a campaign profile; and one arena for the
// whole deployment, rather than a set of slabs per replica and per
// client, keeps the partly filled chunks a warm master retains to one
// per message type instead of two per client.
//
// The deployment harness owns the capture/rewind cycle through the
// slab.Arena the slabs were created from; replicas and clients only
// allocate.
type Arena struct {
	requests    *slab.Slab[Request]
	replies     *slab.Slab[Reply]
	prepares    *slab.Slab[Prepare]
	commits     *slab.Slab[Commit]
	prePrepares *slab.Slab[PrePrepare]
	forwarded   *slab.Slab[forwarded]
	fwdMsgs     *slab.Slab[ForwardedRequest]
	tags        *slab.Span[mac.Tag]
	// batches backs the primaries' pending-request buffers, whose
	// prefixes become the batches log entries and pre-prepares carry.
	batches *slab.Span[*Request]
}

// NewArena creates the deployment's message slabs in mem.
func NewArena(mem *slab.Arena) *Arena {
	return &Arena{
		requests:    slab.New[Request](mem),
		replies:     slab.New[Reply](mem),
		prepares:    slab.New[Prepare](mem),
		commits:     slab.New[Commit](mem),
		prePrepares: slab.New[PrePrepare](mem),
		forwarded:   slab.New[forwarded](mem),
		fwdMsgs:     slab.New[ForwardedRequest](mem),
		tags:        slab.NewSpan[mac.Tag](mem),
		batches:     slab.NewSpan[*Request](mem),
	}
}

// Release is the deployment's simnet.Releaser: a reply, which replicas
// only ever send with SendOwned, goes back to its slab. Nothing else is
// sent owned — requests, votes and pre-prepares are shared by the
// replicas' logs.
func (a *Arena) Release(payload any) {
	if rp, ok := payload.(*Reply); ok {
		a.replies.Put(rp)
	}
}

// newPrivateArena backs a replica or client constructed without a
// deployment arena (unit tests wiring a cluster by hand): it is never
// rewound and simply grows.
func newPrivateArena() *Arena { return NewArena(slab.NewArena(nil, nil)) }
