package pbft

import (
	"cmp"
	"math/bits"
	"slices"
)

// vcSet is the view changes a replica holds for one target view: a
// presence bitmask over replica ids plus one slot per replica, as voteSet
// is for votes. Replica ids are < 64 (Config.Validate).
type vcSet struct {
	mask uint64
	by   []*ViewChange // indexed by replica id, len N
}

func (s *vcSet) add(vc *ViewChange) {
	s.mask |= 1 << uint(vc.Replica)
	s.by[vc.Replica] = vc
}

// newVCSet hands out an empty view-change set from the pool.
func (r *Replica) newVCSet() *vcSet {
	if n := len(r.vcFree); n > 0 {
		s := r.vcFree[n-1]
		r.vcFree = r.vcFree[:n-1]
		return s
	}
	return &vcSet{by: make([]*ViewChange, r.cfg.N)}
}

// freeVCSet empties s, so that the pool points at no message, and pools
// it.
func (r *Replica) freeVCSet(s *vcSet) {
	s.mask = 0
	clear(s.by)
	r.vcFree = append(r.vcFree, s)
}

// dropViewChanges discards every view-change set.
func (r *Replica) dropViewChanges() {
	//avdlint:allow drain: pooled view-change sets are fully reset on reuse, so drain order is not observable
	for _, set := range r.viewChanges {
		r.freeVCSet(set)
	}
	clear(r.viewChanges)
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
// prepares' pointer slices are three windows carved in one go, so the
// chunks they lease do not depend on map order. A proof holds its
// pre-prepare for good: nothing counts the view change that carries it,
// and the new view's re-proposals share the pre-prepare's batch.
func (r *Replica) preparedProofs() []PreparedProof {
	seqs, votes := r.seqs[:0], 0
	//avdlint:allow collection only: the sequence numbers are sorted before use and the vote total is a sum
	for seq, e := range r.log {
		if seq <= r.lowWater || !e.prepared {
			continue
		}
		seqs = append(seqs, seq)
		votes += bits.OnesCount64(r.certificate(e))
	}
	slices.Sort(seqs)
	r.seqs = seqs
	proofs := r.mem.proofs.Get(len(seqs))
	prepares := r.mem.proofVotes.Get(votes)
	ptrs := r.mem.proofPtrs.Get(votes)
	next := 0
	for i, seq := range seqs {
		e := r.log[seq]
		first := next
		for m := r.certificate(e); m != 0; m &= m - 1 {
			p := &prepares[next]
			*p = Prepare{View: e.view, SeqNo: seq, Digest: e.digest, Replica: bits.TrailingZeros64(m)}
			ptrs[next] = p
			next++
		}
		r.mem.holdPrePrepare(e.prePrepare)
		proofs[i] = PreparedProof{PrePrepare: e.prePrepare, Prepares: ptrs[first:next:next]}
	}
	return proofs
}

// certificate is the replicas whose prepares for e a proof carries: those
// matching e's digest, less this replica's own when it proposed e.
func (r *Replica) certificate(e *logEntry) uint64 {
	m := uint64(0)
	for v := e.prepares.mask; v != 0; v &= v - 1 {
		if rep := bits.TrailingZeros64(v); e.prepares.digests[rep] == e.digest {
			m |= 1 << uint(rep)
		}
	}
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

func (r *Replica) recordViewChange(vc *ViewChange) {
	set, ok := r.viewChanges[vc.NewView]
	if !ok {
		set = r.newVCSet()
		r.viewChanges[vc.NewView] = set
	}
	set.add(vc)
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
	//avdlint:allow a minimum and a union: both order-independent
	for v, set := range r.viewChanges {
		if v <= current {
			continue
		}
		if smallest == 0 || v < smallest {
			smallest = v
		}
		campaigners |= set.mask
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
	set := r.viewChanges[target]
	if set == nil || bits.OnesCount64(set.mask) < r.cfg.Quorum() {
		return
	}
	if set.mask&(1<<uint(r.id)) == 0 {
		return // must include our own view change
	}
	minS, reproposals := r.computeNewViewSets(set)
	vcs := r.mem.vcPtrs.Get(bits.OnesCount64(set.mask))
	for i, m := 0, set.mask; m != 0; i, m = i+1, m&(m-1) {
		vcs[i] = set.by[bits.TrailingZeros64(m)]
	}
	nv := r.mem.newViews.Get()
	*nv = NewView{View: target, ViewChanges: vcs, PrePrepares: reproposals, Auth: r.auth()}
	r.net.Broadcast(r.Addr(), r.replicaAddrs(), nv)
	r.installNewView(target, minS, reproposals)
}

// computeNewViewSets derives min-s and the re-proposal set O: for every
// sequence number between the highest stable checkpoint and the highest
// prepared batch across the quorum, re-propose the prepared batch (from
// the highest view) or fill the gap with a null request.
func (r *Replica) computeNewViewSets(set *vcSet) (uint64, []*PrePrepare) {
	var minS, maxS uint64
	best := r.best // seq -> highest-view prepared pre-prepare
	// Iterate in replica-id order. With a Byzantine primary equivocating
	// inside a view, a quorum can hold two prepared proofs for the same
	// (seq, view) with different digests; the strict View comparison below
	// then keeps whichever proof the iteration saw first, so any other
	// order would decide which batch the new view re-proposes — cold and
	// forked runs of the same scenario could install different histories.
	for m := set.mask; m != 0; m &= m - 1 {
		vc := set.by[bits.TrailingZeros64(m)]
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
	n := int(maxS - minS)
	pps, out := r.mem.reproposals.Get(n), r.mem.ppPtrs.Get(n)
	for i := range out {
		seq := minS + 1 + uint64(i)
		// View is rewritten by installNewView / onNewView.
		pp := &pps[i]
		if prepared, ok := best[seq]; ok {
			*pp = PrePrepare{SeqNo: seq, Batch: prepared.Batch, Digest: prepared.Digest}
		} else {
			batch := r.mem.nullBatch
			*pp = PrePrepare{SeqNo: seq, Batch: batch, Digest: BatchDigest(batch)}
		}
		out[i] = pp
	}
	clear(best)
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
	//avdlint:allow discard: pooled view-change sets are fully reset on reuse, so drain order is not observable
	for v, set := range r.viewChanges {
		if v <= target {
			r.freeVCSet(set)
			delete(r.viewChanges, v)
		}
	}
	// Drop un-executed agreement state from prior views; the new-view
	// re-proposals are authoritative. Entries from this view (just
	// installed by the primary path) stay. Free in sorted sequence order:
	// the entry pool recycles LIFO, so the order entries are freed decides
	// which backing objects later allocations receive, and replayed forks
	// must hand them out identically.
	drop := r.seqs[:0]
	for seq, e := range r.log {
		if e.executed || e.view >= target {
			continue
		}
		drop = append(drop, seq)
	}
	slices.Sort(drop)
	r.seqs = drop
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
	keys := r.keys[:0]
	for key := range r.pendingForwarded {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b RequestKey) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq))
	})
	r.keys = keys
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
