package pbft

import (
	"math/bits"
	"sort"
)

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
		//avdlint:allow crash fires iff any log entry is poisoned; the verdict and message are order-independent
		for _, e := range r.log {
			if !e.executed && e.poisoned() {
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

	vc := &ViewChange{
		NewView:    target,
		LastStable: r.lowWater,
		Prepared:   r.preparedProofs(),
		Replica:    r.id,
	}
	vc.Auth = r.auth()
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
// watermark. A proof holds its pre-prepare for good: the view change that
// carries it is a heap object, and the new view's re-proposals share the
// pre-prepare's batch.
func (r *Replica) preparedProofs() []PreparedProof {
	var proofs []PreparedProof
	//avdlint:allow per-entry proof assembly reads only that entry; proofs are sorted by SeqNo before use
	for seq, e := range r.log {
		if seq <= r.lowWater || !e.prepared {
			continue
		}
		var prepares []*Prepare
		m := e.prepares.mask
		for m != 0 {
			rep := bits.TrailingZeros64(m)
			m &= m - 1
			d := e.prepares.digests[rep]
			if d != e.digest || rep == r.id && r.cfg.PrimaryOf(e.view) == r.id {
				continue
			}
			prepares = append(prepares, &Prepare{View: e.view, SeqNo: seq, Digest: d, Replica: rep})
		}
		r.mem.holdPrePrepare(e.prePrepare)
		proofs = append(proofs, PreparedProof{PrePrepare: e.prePrepare, Prepares: prepares})
	}
	sort.Slice(proofs, func(i, j int) bool {
		return proofs[i].PrePrepare.SeqNo < proofs[j].PrePrepare.SeqNo
	})
	return proofs
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

func (r *Replica) recordViewChange(vc *ViewChange) {
	byReplica, ok := r.viewChanges[vc.NewView]
	if !ok {
		byReplica = make(map[int]*ViewChange)
		r.viewChanges[vc.NewView] = byReplica
	}
	byReplica[vc.Replica] = vc
}

// maybeJoinViewChange applies PBFT's f+1 join rule.
func (r *Replica) maybeJoinViewChange() {
	current := r.view
	if r.inViewChange {
		current = r.pendingView
	}
	// Find the smallest view above current with f+1 distinct campaigners
	// across all views >= it.
	var views []uint64
	for v := range r.viewChanges {
		if v > current {
			views = append(views, v)
		}
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	for _, v := range views {
		campaigners := make(map[int]bool)
		for v2, by := range r.viewChanges {
			if v2 >= v {
				for rep := range by {
					campaigners[rep] = true
				}
			}
		}
		if len(campaigners) >= r.cfg.F+1 {
			r.startViewChange(v)
			return
		}
	}
}

// maybeAssembleNewView emits the NEW-VIEW if we are the target primary and
// hold a quorum of view changes.
func (r *Replica) maybeAssembleNewView(target uint64) {
	if r.crashed || r.cfg.PrimaryOf(target) != r.id || target <= r.view {
		return
	}
	byReplica := r.viewChanges[target]
	if len(byReplica) < r.cfg.Quorum() {
		return
	}
	if _, ok := byReplica[r.id]; !ok {
		return // must include our own view change
	}
	minS, reproposals := r.computeNewViewSets(byReplica)
	nv := &NewView{View: target}
	for _, vc := range byReplica {
		nv.ViewChanges = append(nv.ViewChanges, vc)
	}
	sort.Slice(nv.ViewChanges, func(i, j int) bool {
		return nv.ViewChanges[i].Replica < nv.ViewChanges[j].Replica
	})
	nv.PrePrepares = reproposals
	nv.Auth = r.auth()
	r.net.Broadcast(r.Addr(), r.replicaAddrs(), nv)
	r.installNewView(target, minS, reproposals)
}

// computeNewViewSets derives min-s and the re-proposal set O: for every
// sequence number between the highest stable checkpoint and the highest
// prepared batch across the quorum, re-propose the prepared batch (from
// the highest view) or fill the gap with a null request.
func (r *Replica) computeNewViewSets(byReplica map[int]*ViewChange) (uint64, []*PrePrepare) {
	var minS, maxS uint64
	best := make(map[uint64]*PrePrepare) // seq -> highest-view prepared pre-prepare
	// Iterate in replica-id order. With a Byzantine primary equivocating
	// inside a view, a quorum can hold two prepared proofs for the same
	// (seq, view) with different digests; the strict View comparison below
	// then keeps whichever proof the iteration saw first, so map order
	// would decide which batch the new view re-proposes — cold and forked
	// runs of the same scenario could install different histories.
	reps := make([]int, 0, len(byReplica))
	for rep := range byReplica {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	for _, rep := range reps {
		vc := byReplica[rep]
		if vc.LastStable > minS {
			minS = vc.LastStable
		}
		for _, proof := range vc.Prepared {
			pp := proof.PrePrepare
			if pp == nil {
				continue
			}
			if pp.SeqNo > maxS {
				maxS = pp.SeqNo
			}
			if cur, ok := best[pp.SeqNo]; !ok || pp.View > cur.View {
				best[pp.SeqNo] = pp
			}
		}
	}
	if maxS < minS {
		maxS = minS
	}
	var out []*PrePrepare
	for seq := minS + 1; seq <= maxS; seq++ {
		if pp, ok := best[seq]; ok {
			out = append(out, &PrePrepare{
				View:   0, // rewritten by installNewView / onNewView
				SeqNo:  seq,
				Batch:  pp.Batch,
				Digest: pp.Digest,
			})
			continue
		}
		batch := []*Request{NullRequest()}
		out = append(out, &PrePrepare{SeqNo: seq, Batch: batch, Digest: BatchDigest(batch)})
	}
	return minS, out
}

// installNewView switches the new primary itself into the target view.
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
		entry := r.getEntry(pp.SeqNo)
		if entry.executed {
			continue
		}
		// Modeled defect, primary side: re-proposing a batch whose client
		// MACs we cannot verify dereferences discarded state.
		if !r.reproposalVerifies(pp) {
			return
		}
		r.setPrePrepare(entry, target, pp)
		r.net.Broadcast(r.Addr(), r.replicaAddrs(), pp)
		r.checkPrepared(pp.SeqNo, entry)
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
		if fw, ok := r.pendingForwarded[req.Key()]; ok && fw.verified {
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
		entry := r.getEntry(pp.SeqNo)
		if entry.executed || pp.SeqNo <= r.lowWater {
			continue
		}
		if !r.reproposalVerifies(pp) {
			return
		}
		r.setPrePrepare(entry, nv.View, pp)
		entry.prepares.set(r.id, pp.Digest)
		r.sendPrepare(nv.View, pp.SeqNo, pp.Digest)
		r.checkPrepared(pp.SeqNo, entry)
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
	for v := range r.viewChanges {
		if v <= target {
			delete(r.viewChanges, v)
		}
	}
	// Drop un-executed agreement state from prior views; the new-view
	// re-proposals are authoritative. Entries from this view (just
	// installed by the primary path) stay. Free in sorted sequence order:
	// the entry pool recycles LIFO, so the order entries are freed decides
	// which backing objects later allocations receive, and replayed forks
	// must hand them out identically.
	drop := make([]uint64, 0, len(r.log))
	for seq, e := range r.log {
		if e.executed || e.view >= target {
			continue
		}
		drop = append(drop, seq)
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i] < drop[j] })
	for _, seq := range drop {
		r.freeEntry(r.log[seq])
		delete(r.log, seq)
	}
	// Poisoned-slot bookkeeping refers to entries we just dropped; the
	// new view's re-proposals rebuild it.
	clear(r.pendingBad)
	// Re-forward pending direct requests to the new primary and re-arm
	// their timers (PBFT restarts the request timers in the new view).
	// Iterate in sorted key order: admission and send order decide batch
	// composition and network scheduling, and map order would make runs
	// diverge.
	primary := r.cfg.PrimaryOf(target)
	keys := make([]RequestKey, 0, len(r.pendingForwarded))
	for key := range r.pendingForwarded {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Client != keys[j].Client {
			return keys[i].Client < keys[j].Client
		}
		return keys[i].Seq < keys[j].Seq
	})
	for _, key := range keys {
		fw := r.pendingForwarded[key]
		if last := r.lastReplyFor(fw.req.Client); last != nil && last.Seq >= fw.req.Seq {
			delete(r.pendingForwarded, key)
			r.mem.dropRequest(fw.req)
			continue
		}
		if primary == r.id {
			r.primaryAdmit(fw.req)
		} else {
			r.forward(fw.req, primary)
			r.armRequestTimer(key)
		}
	}
	// A Byzantine slow replica that just became primary starts pacing.
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
}
