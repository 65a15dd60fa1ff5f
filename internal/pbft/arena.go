package pbft

import "avd/internal/slab"

// Arena is the message memory of one PBFT deployment: every request,
// reply, vote and proposal its replicas and clients build is carved from
// these slabs (see package slab). A full-throughput deployment used to
// allocate one heap object per reply per replica, which made the
// allocator and the garbage collector the top sites of a campaign
// profile; and one arena for the whole deployment, rather than a set of
// slabs per replica and per client, keeps the partly filled chunks a warm
// master retains to one per message type instead of two per client.
//
// Messages several holders share carry a slab.Holders count, and the
// holder that drops the last count puts the message back (DESIGN.md §12):
//
//   - Request: each delivery, the primary's pending buffer, the
//     pre-prepare whose batch carries it, a backup's pendingForwarded
//     record and each ForwardedRequest relaying it;
//   - PrePrepare: each delivery and each log entry holding it, and a
//     view change that carries it as a prepared proof (for good: nothing
//     counts a view change, so nothing drops that hold before the
//     rewind);
//   - Prepare, Commit, ForwardedRequest, Reply: their deliveries.
//
// A pre-prepare that goes back drops its batch's requests. Holders let go
// at the protocol's own garbage-collection points: a stable checkpoint
// (advanceWatermark), a crash with state loss, a view change's discard, a
// request's execution, and the end of a delivery.
//
// What a view change builds counts no holders and is never put back: view
// changes, their prepared proofs and the proofs' certificates, new views
// and their re-proposals come from slabs and spans of their own, which no
// Put reaches, and stay carved until the rewind. A view change is rare
// next to the agreement traffic, and everything it builds is referenced
// from the replicas' view-change records and from other view-change
// messages for as long as the view lasts.
//
// The deployment harness owns the capture/rewind cycle through the
// slab.Arena the slabs were created from; replicas and clients only
// allocate.
type Arena struct {
	mem         *slab.Arena
	requests    *slab.Slab[Request]
	replies     *slab.Slab[Reply]
	prepares    *slab.Slab[Prepare]
	commits     *slab.Slab[Commit]
	prePrepares *slab.Slab[PrePrepare]
	fwdMsgs     *slab.Slab[ForwardedRequest]
	// batches backs the primaries' pending-request buffers, whose
	// prefixes become the batches log entries and pre-prepares carry.
	batches *slab.Span[*Request]

	// View-change memory (viewchange.go), uncounted and never put back.
	viewChanges *slab.Slab[ViewChange]
	newViews    *slab.Slab[NewView]
	proofs      *slab.Span[PreparedProof]
	proofVotes  *slab.Span[Prepare]
	proofPtrs   *slab.Span[*Prepare]
	vcPtrs      *slab.Span[*ViewChange]
	reproposals *slab.Span[PrePrepare]
	ppPtrs      *slab.Span[*PrePrepare]
	// nullBatch is the one-request batch a new view fills a sequence gap
	// with. Its null request counts no holders and nothing writes either,
	// so every gap of the deployment shares them.
	nullBatch []*Request
}

// NewArena creates the deployment's message slabs in mem.
func NewArena(mem *slab.Arena) *Arena {
	return &Arena{
		mem:         mem,
		requests:    slab.New[Request](mem),
		replies:     slab.New[Reply](mem),
		prepares:    slab.New[Prepare](mem),
		commits:     slab.New[Commit](mem),
		prePrepares: slab.New[PrePrepare](mem),
		fwdMsgs:     slab.New[ForwardedRequest](mem),
		batches:     slab.NewSpan[*Request](mem),
		viewChanges: slab.New[ViewChange](mem),
		newViews:    slab.New[NewView](mem),
		proofs:      slab.NewSpan[PreparedProof](mem),
		proofVotes:  slab.NewSpan[Prepare](mem),
		proofPtrs:   slab.NewSpan[*Prepare](mem),
		vcPtrs:      slab.NewSpan[*ViewChange](mem),
		reproposals: slab.NewSpan[PrePrepare](mem),
		ppPtrs:      slab.NewSpan[*PrePrepare](mem),
		nullBatch:   []*Request{nullRequest()},
	}
}

// nullRequest is a NullRequest with its digest cached, so that sharing it
// writes nothing.
func nullRequest() *Request {
	req := NullRequest()
	req.Digest()
	return req
}

// share starts a message's count at n holders.
func (a *Arena) share(h *slab.Holders, n int) { a.mem.Share(h, n) }

// holdersOf returns a counted message's count, nil for anything else.
func holdersOf(payload any) *slab.Holders {
	switch m := payload.(type) {
	case *Request:
		return &m.holders
	case *PrePrepare:
		return &m.holders
	case *Prepare:
		return &m.holders
	case *Commit:
		return &m.holders
	case *ForwardedRequest:
		return &m.holders
	case *Reply:
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
// handler has returned: the delivery's hold is dropped.
func (a *Arena) Release(payload any) {
	switch m := payload.(type) {
	case *Request:
		a.dropRequest(m)
	case *PrePrepare:
		a.dropPrePrepare(m)
	case *Prepare:
		if a.mem.Drop(&m.holders) {
			a.prepares.Put(m)
		}
	case *Commit:
		if a.mem.Drop(&m.holders) {
			a.commits.Put(m)
		}
	case *ForwardedRequest:
		if a.mem.Drop(&m.holders) {
			req := m.Request
			a.fwdMsgs.Put(m)
			a.dropRequest(req)
		}
	case *Reply:
		if a.mem.Drop(&m.holders) {
			a.replies.Put(m)
		}
	}
}

func (a *Arena) holdRequest(req *Request) { a.mem.Hold(&req.holders) }

func (a *Arena) dropRequest(req *Request) {
	if a.mem.Drop(&req.holders) {
		a.requests.Put(req)
	}
}

func (a *Arena) holdPrePrepare(pp *PrePrepare) { a.mem.Hold(&pp.holders) }

// dropPrePrepare drops a hold on pp, a no-op for nil (an entry without
// one); the last drops pp's holds on the requests of its batch.
func (a *Arena) dropPrePrepare(pp *PrePrepare) {
	if pp == nil || !a.mem.Drop(&pp.holders) {
		return
	}
	for _, req := range pp.Batch {
		a.dropRequest(req)
	}
	a.prePrepares.Put(pp)
}

// newPrivateArena backs a replica or client constructed without a
// deployment arena (unit tests wiring a cluster by hand): it is never
// rewound and simply grows.
func newPrivateArena() *Arena { return NewArena(slab.NewArena(nil, nil)) }
