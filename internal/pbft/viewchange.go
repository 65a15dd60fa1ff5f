package pbft

import (
	"cmp"
	"math/bits"
	"slices"
)

// compareViewChanges orders view changes by target view, then sender.
func compareViewChanges(a, b *ViewChange) int {
	return cmp.Or(cmp.Compare(a.NewView, b.NewView), cmp.Compare(a.Replica, b.Replica))
}

// viewChangesFor returns the view changes held for view target, in
// replica-id order.
func (r *Replica) viewChangesFor(target uint64) []*ViewChange {
	lo := 0
	for lo < len(r.viewChanges) && r.viewChanges[lo].NewView < target {
		lo++
	}
	hi := lo
	for hi < len(r.viewChanges) && r.viewChanges[hi].NewView == target {
		hi++
	}
	return r.viewChanges[lo:hi]
}

// startViewChange abandons the current view and campaigns for target.
func (r *Replica) startViewChange(target uint64) {
	if r.crashed {
		return
	}
	if target <= r.view || (r.inViewChange && target <= r.pendingView) {
		return
	}
	// Modeled implementation defect (see DESIGN.md): assembling the
	// view-change message walks the whole log and dereferences the
	// authenticated request bodies; entries still poisoned by
	// unauthenticated client MACs (never healed by a valid
	// retransmission) had no such bodies in the original codebase, so the
	// walk crashes. This is the "view change and crash" the paper
	// reports for MAC-corruption attacks.
	if r.crashOnBadReproposal {
		for i := range r.log {
			if e := &r.log[i]; !e.executed && e.poisoned() {
				r.crash("view-change assembly dereferenced an unauthenticated batch")
				return
			}
		}
	}
	r.inViewChange = true
	r.pendingView = target
	r.batchTimer.Stop()
	r.stopAllRequestTimers()
	r.dropPending()
	clear(r.admitted) // dropped pending work may be re-admitted in the new view

	vc := r.mem.viewChanges.Get()
	*vc = ViewChange{
		NewView:    target,
		LastStable: r.lowWater,
		Prepared:   r.preparedProofs(),
		Replica:    r.id,
		Auth:       r.auth(),
	}
	r.recordViewChange(vc)
	r.net.Broadcast(r.Addr(), r.replicaAddrs(), vc)

	// If the new view does not install in time, move on to the next one,
	// doubling the wait (PBFT's exponential view-change backoff).
	r.newViewTimer.Stop()
	timeout := r.nvTimeout
	r.nvTimeout *= 2
	r.newViewTimer = r.eng.ScheduleSkewed(r.clock, timeout, r.nvTimeoutFn)
	r.maybeAssembleNewView(target)
}

// preparedProofs collects certificates for batches prepared above the low
// watermark, in sequence order. The proofs, their prepares and the
// prepares' pointer slices are three windows carved in one go. A proof
// holds its pre-prepare for good: nothing counts the view change that
// carries it, and the new view's re-proposals share the pre-prepare's
// batch.
func (r *Replica) preparedProofs() []PreparedProof {
	n, votes := 0, 0
	for i := range r.log {
		if e := &r.log[i]; e.prepared {
			n++
			votes += bits.OnesCount64(r.certificate(r.lowWater + 1 + uint64(i)))
		}
	}
	proofs := r.mem.proofs.Get(n)
	prepares := r.mem.proofVotes.Get(votes)
	ptrs := r.mem.proofPtrs.Get(votes)
	next, p := 0, 0
	for i := range r.log {
		e := &r.log[i]
		if !e.prepared {
			continue
		}
		seq, first := r.lowWater+1+uint64(i), next
		for m := r.certificate(seq); m != 0; m &= m - 1 {
			v := &prepares[next]
			*v = Prepare{View: e.view, SeqNo: seq, Digest: e.digest, Replica: bits.TrailingZeros64(m)}
			ptrs[next] = v
			next++
		}
		r.mem.holdPrePrepare(e.prePrepare)
		proofs[p] = PreparedProof{PrePrepare: e.prePrepare, Prepares: ptrs[first:next:next]}
		p++
	}
	return proofs
}

// certificate is the replicas whose prepares for the entry of seq a proof
// carries: those matching its digest, less this replica's own when it
// proposed the entry.
func (r *Replica) certificate(seq uint64) uint64 {
	e := r.at(seq)
	m := r.matching(seq, false, e.digest)
	if r.cfg.PrimaryOf(e.view) == r.id {
		m &^= 1 << uint(r.id)
	}
	return m
}

func (r *Replica) onViewChange(vc *ViewChange) {
	if r.crashed || vc.NewView <= r.view {
		return
	}
	if !r.verifyPeer(vc.Replica, vc.Auth) {
		return
	}
	r.recordViewChange(vc)

	// Liveness rule: seeing F+1 replicas campaigning for views above ours
	// means the system is moving on; join the smallest such view so we are
	// not left behind.
	if !r.inViewChange || vc.NewView > r.pendingView {
		r.maybeJoinViewChange()
	}
	r.maybeAssembleNewView(vc.NewView)
}

// recordViewChange keeps vc, replacing its sender's earlier one for the
// same view.
func (r *Replica) recordViewChange(vc *ViewChange) {
	i, found := slices.BinarySearchFunc(r.viewChanges, vc, compareViewChanges)
	if found {
		r.viewChanges[i] = vc
		return
	}
	r.viewChanges = slices.Insert(r.viewChanges, i, vc)
}

// maybeJoinViewChange applies PBFT's f+1 join rule: join the smallest view
// above current with f+1 distinct campaigners across all views >= it. The
// campaigners of a view include those of every larger one, so only the
// smallest view above current can qualify, and it does when the replicas
// campaigning above current number f+1.
func (r *Replica) maybeJoinViewChange() {
	current := r.view
	if r.inViewChange {
		current = r.pendingView
	}
	var smallest, campaigners uint64
	for _, vc := range r.viewChanges {
		if vc.NewView <= current {
			continue
		}
		if smallest == 0 {
			smallest = vc.NewView
		}
		campaigners |= 1 << uint(vc.Replica)
	}
	if bits.OnesCount64(campaigners) >= r.cfg.F+1 {
		r.startViewChange(smallest)
	}
}

// maybeAssembleNewView emits the NEW-VIEW if we are the target primary and
// hold a quorum of view changes.
func (r *Replica) maybeAssembleNewView(target uint64) {
	if r.crashed || r.cfg.PrimaryOf(target) != r.id || target <= r.view {
		return
	}
	held := r.viewChangesFor(target)
	if len(held) < r.cfg.Quorum() {
		return
	}
	own := false
	for _, vc := range held {
		own = own || vc.Replica == r.id
	}
	if !own {
		return // must include our own view change
	}
	minS, reproposals := r.computeNewViewSets(held)
	vcs := r.mem.vcPtrs.Get(len(held))
	copy(vcs, held)
	nv := r.mem.newViews.Get()
	*nv = NewView{View: target, ViewChanges: vcs, PrePrepares: reproposals, Auth: r.auth()}
	r.net.Broadcast(r.Addr(), r.replicaAddrs(), nv)
	r.installNewView(target, minS, reproposals)
}

// computeNewViewSets derives min-s and the re-proposal set O from the view
// changes of a quorum, given in replica-id order: for every sequence
// number between the highest stable checkpoint and the highest prepared
// batch across the quorum, re-propose the prepared batch (from the
// highest view) or fill the gap with a null request.
func (r *Replica) computeNewViewSets(held []*ViewChange) (uint64, []*PrePrepare) {
	var minS, maxS uint64
	for _, vc := range held {
		minS = max(minS, vc.LastStable)
		for _, proof := range vc.Prepared {
			if pp := proof.PrePrepare; pp != nil {
				maxS = max(maxS, pp.SeqNo)
			}
		}
	}
	maxS = max(maxS, minS)
	n := int(maxS - minS)
	pps, out := r.mem.reproposals.Get(n), r.mem.ppPtrs.Get(n)
	for i := range pps {
		pps[i] = PrePrepare{SeqNo: minS + 1 + uint64(i)}
	}
	// Pick the highest-view proof per sequence number, parking its view in
	// the re-proposal until the gaps are filled. With a Byzantine primary
	// equivocating inside a view, a quorum can hold two prepared proofs
	// for the same (seq, view) with different digests; the strict View
	// comparison keeps the first in replica-id order, so cold and forked
	// runs of the same scenario install the same history.
	for _, vc := range held {
		for _, proof := range vc.Prepared {
			pp := proof.PrePrepare
			if pp == nil || pp.SeqNo <= minS {
				continue
			}
			if cur := &pps[pp.SeqNo-minS-1]; cur.Batch == nil || pp.View > cur.View {
				cur.View, cur.Batch, cur.Digest = pp.View, pp.Batch, pp.Digest
			}
		}
	}
	for i := range pps {
		// View is rewritten by installNewView / onNewView.
		pp := &pps[i]
		pp.View = 0
		if pp.Batch == nil {
			pp.Batch = r.mem.nullBatch
			pp.Digest = BatchDigest(pp.Batch)
		}
		out[i] = pp
	}
	return minS, out
}

// installNewView switches the new primary itself into the target view.
// A re-proposal at or below the low watermark, which this replica's own
// checkpoints moved past the quorum's, is verified and sent but logs
// nothing.
func (r *Replica) installNewView(target, minS uint64, reproposals []*PrePrepare) {
	r.enterView(target)
	if minS > r.lowWater {
		r.advanceWatermark(minS)
	}
	if r.seqCounter < minS {
		r.seqCounter = minS
	}
	for _, pp := range reproposals {
		pp.View = target
		pp.Auth = r.auth()
		if pp.SeqNo > r.seqCounter {
			r.seqCounter = pp.SeqNo
		}
		logged := pp.SeqNo > r.lowWater
		if logged && r.entry(pp.SeqNo).executed {
			continue
		}
		// Modeled defect, primary side: re-proposing a batch whose client
		// MACs we cannot verify dereferences discarded state.
		if !r.reproposalVerifies(pp) {
			return
		}
		if logged {
			r.setPrePrepare(r.entry(pp.SeqNo), target, pp)
		}
		r.net.Broadcast(r.Addr(), r.replicaAddrs(), pp)
		r.checkPrepared(pp.SeqNo)
	}
}

// reproposalVerifies checks the client MACs of a re-proposed batch and
// applies the crash model on failure. A request previously verified via
// a direct copy counts as authenticated (the re-proposed copy may carry
// another replica's corrupt authenticator, but the body digest matches).
// It reports whether processing may continue.
func (r *Replica) reproposalVerifies(pp *PrePrepare) bool {
	for _, req := range pp.Batch {
		if r.verifyClientMAC(req) {
			continue
		}
		if fw := r.pendingForwarded.find(req.Key()); fw != nil && fw.verified {
			continue
		}
		if r.crashOnBadReproposal {
			r.crash("new-view re-proposal of an unauthenticated batch")
		}
		r.stats.RejectedBatches++
		return false
	}
	return true
}

// onNewView processes the new primary's installation message at a backup.
func (r *Replica) onNewView(from int, nv *NewView) {
	if r.crashed || nv.View <= r.view {
		return
	}
	if from != r.cfg.PrimaryOf(nv.View) {
		return
	}
	if len(nv.ViewChanges) < r.cfg.Quorum() {
		return
	}
	var minS uint64
	for _, vc := range nv.ViewChanges {
		if vc.LastStable > minS {
			minS = vc.LastStable
		}
	}
	r.enterView(nv.View)
	if minS > r.lowWater {
		r.advanceWatermark(minS)
	}
	for _, pp := range nv.PrePrepares {
		pp.View = nv.View
		if pp.SeqNo <= r.lowWater || r.entry(pp.SeqNo).executed {
			continue
		}
		if !r.reproposalVerifies(pp) {
			return
		}
		r.setPrePrepare(r.entry(pp.SeqNo), nv.View, pp)
		r.vote(pp.SeqNo, false, r.id, pp.Digest)
		r.sendPrepare(nv.View, pp.SeqNo, pp.Digest)
		r.checkPrepared(pp.SeqNo)
	}
}

// enterView installs the target view and re-arms pending client work.
func (r *Replica) enterView(target uint64) {
	r.view = target
	r.inViewChange = false
	r.pendingView = 0
	r.nvTimeout = r.cfg.NewViewTimeout
	r.newViewTimer.Stop()
	r.stats.ViewsInstalled++
	if r.viewObserver != nil {
		r.viewObserver(r.id, target)
	}
	// Discard obsolete view-change state.
	k := 0
	for k < len(r.viewChanges) && r.viewChanges[k].NewView <= target {
		k++
	}
	r.viewChanges = shift(r.viewChanges, k)
	// Drop un-executed agreement state from prior views; the new-view
	// re-proposals are authoritative. Entries from this view (just
	// installed by the primary path) stay.
	for i := range r.log {
		if e := &r.log[i]; !e.executed && e.view < target {
			e.drop(r.mem)
		}
	}
	// Re-forward pending direct requests to the new primary and re-arm
	// their timers (PBFT restarts the request timers in the new view), in
	// key order: admission and send order decide batch composition and
	// network scheduling.
	primary := r.cfg.PrimaryOf(target)
	for key, fw := r.pendingForwarded.next(RequestKey{}); fw != nil; key, fw = r.pendingForwarded.next(key) {
		req := fw.req
		if last := r.lastReplyFor(req.Client); last != nil && last.Seq >= req.Seq {
			r.pendingForwarded.del(key)
			r.mem.dropRequest(req)
			continue
		}
		if primary == r.id {
			r.primaryAdmit(req)
		} else {
			r.forward(req, primary)
			r.armRequestTimer(key)
		}
	}
	// A Byzantine slow replica that just became primary starts pacing.
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
}
