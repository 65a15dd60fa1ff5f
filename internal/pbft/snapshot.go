package pbft

import (
	"slices"
	"time"

	"avd/internal/faultinject"
	"avd/internal/sim"
)

// This file implements the SUT side of snapshot/fork execution
// (DESIGN.md §12, §14) for the PBFT deployment: replicas and clients
// capture every mutable field they own and roll themselves back for each
// forked test. Messages (requests, votes, replies, view changes) are
// immutable once constructed, so captures share their pointers and only
// copy the containers; sim.Timer handles survive restore because the
// engine revalidates the arena generations they reference.
//
// Restore is the per-fork hot path and is allocation-free in the steady
// state: log entries, checkpoint vote sets and view-change sets come from
// the replica's pools, vote sets copy as mask+slice, and the dense
// lastReply table copies in place. Only poisoned-slot bookkeeping — empty
// in a fault-neutral post-warmup capture — falls back to allocating
// copies.

// voteSnap is the captured form of a voteSet.
type voteSnap struct {
	mask    uint64
	digests []uint64
}

func snapVotes(v *voteSet) voteSnap {
	return voteSnap{mask: v.mask, digests: append([]uint64(nil), v.digests...)}
}

func (s voteSnap) restoreInto(v *voteSet) {
	v.mask = s.mask
	copy(v.digests, s.digests)
}

// forwardedSnap captures one pendingForwarded record: the record itself
// predates the arena's capture mark, so Restore writes the value back in
// place instead of carving a copy — a restore allocates nothing from the
// arena, which keeps a forked window's lease count identical to the cold
// run's (the window-memory ceiling must trip on the same event in both).
type forwardedSnap struct {
	at  *forwarded
	val forwarded
}

// entryState is the deep copy of one log entry's agreement state.
type entryState struct {
	seq        uint64
	view       uint64
	digest     uint64
	batch      []*Request
	prePrepare *PrePrepare
	badIdx     map[int]bool
	prepares   voteSnap
	commits    voteSnap
	prepared   bool
	committed  bool
	executed   bool
}

// ReplicaState is a restorable capture of one replica.
type ReplicaState struct {
	crashed      bool
	crashReason  string
	view         uint64
	inViewChange bool
	pendingView  uint64

	seqCounter uint64
	lastExec   uint64
	lowWater   uint64
	log        []entryState

	pending []*Request
	// pendingBuf is the pending buffer's own backing array at capture
	// time, which predates the arena mark: Restore copies pending back
	// into it, and whatever the window appends beyond its capacity is
	// arena memory.
	pendingBuf []*Request
	admitted   []uint64
	batchTimer sim.Timer
	slowTimer  sim.Timer

	lastReply []lastReply

	pendingForwarded map[RequestKey]forwardedSnap
	singleTimer      sim.Timer
	reqTimers        map[RequestKey]sim.Timer

	pendingBad map[RequestKey][]seqIdx

	checkpoints map[uint64]voteSnap
	stateDigest uint64

	viewChanges  map[uint64]vcSet
	newViewTimer sim.Timer
	nvTimeout    time.Duration

	stats ReplicaStats
}

// Snapshot captures the replica's complete mutable state. The replica's
// ByzantineBehavior pointer is deployment-owned and not captured: the
// harness re-arms (or zeroes) it per run.
func (r *Replica) Snapshot() *ReplicaState {
	s := &ReplicaState{
		crashed:          r.crashed,
		crashReason:      r.crashReason,
		view:             r.view,
		inViewChange:     r.inViewChange,
		pendingView:      r.pendingView,
		seqCounter:       r.seqCounter,
		lastExec:         r.lastExec,
		lowWater:         r.lowWater,
		log:              make([]entryState, 0, len(r.log)),
		pending:          append([]*Request(nil), r.pending...),
		pendingBuf:       r.pending[:0],
		admitted:         append([]uint64(nil), r.admitted...),
		batchTimer:       r.batchTimer,
		slowTimer:        r.slowTimer,
		lastReply:        append([]lastReply(nil), r.lastReply...),
		pendingForwarded: make(map[RequestKey]forwardedSnap, len(r.pendingForwarded)),
		singleTimer:      r.singleTimer,
		reqTimers:        make(map[RequestKey]sim.Timer, len(r.reqTimers)),
		pendingBad:       make(map[RequestKey][]seqIdx, len(r.pendingBad)),
		checkpoints:      make(map[uint64]voteSnap, len(r.checkpoints)),
		stateDigest:      r.stateDigest,
		viewChanges:      make(map[uint64]vcSet, len(r.viewChanges)),
		newViewTimer:     r.newViewTimer,
		nvTimeout:        r.nvTimeout,
		stats:            r.stats,
	}
	//avdlint:allow capture: each iteration writes only its own seq key and reads only that entry
	for seq, e := range r.log {
		es := entryState{
			seq:        seq,
			view:       e.view,
			digest:     e.digest,
			batch:      e.batch,
			prePrepare: e.prePrepare,
			prepares:   snapVotes(&e.prepares),
			commits:    snapVotes(&e.commits),
			prepared:   e.prepared,
			committed:  e.committed,
			executed:   e.executed,
		}
		if len(e.badIdx) > 0 {
			es.badIdx = make(map[int]bool, len(e.badIdx))
			for k, v := range e.badIdx {
				es.badIdx[k] = v
			}
		}
		s.log = append(s.log, es)
	}
	for k, fw := range r.pendingForwarded {
		s.pendingForwarded[k] = forwardedSnap{at: fw, val: *fw}
	}
	for k, v := range r.reqTimers {
		s.reqTimers[k] = v
	}
	//avdlint:allow capture: each iteration writes only its own map key from a fresh copy
	for k, v := range r.pendingBad {
		s.pendingBad[k] = append([]seqIdx(nil), v...)
	}
	//avdlint:allow capture: snapVotes is pure and each iteration writes only its own seq key
	for seq, by := range r.checkpoints {
		s.checkpoints[seq] = snapVotes(by)
	}
	//avdlint:allow capture: each iteration writes only its own view key from a fresh copy
	for view, set := range r.viewChanges {
		s.viewChanges[view] = vcSet{mask: set.mask, by: slices.Clone(set.by)}
	}
	return s
}

// Restore rolls the replica back to the captured state. The deployment
// has already rewound the shared message arena: the window's objects are
// garbage, and everything restored below predates the capture mark.
func (r *Replica) Restore(s *ReplicaState) {
	r.crashed = s.crashed
	r.crashReason = s.crashReason
	r.view = s.view
	r.inViewChange = s.inViewChange
	r.pendingView = s.pendingView
	r.seqCounter = s.seqCounter
	r.lastExec = s.lastExec
	r.lowWater = s.lowWater
	//avdlint:allow restore drain: freed entries are fully reset on reuse, so drain order is not observable
	for _, e := range r.log {
		r.recycleEntry(e)
	}
	// One clear rather than a delete per key: deletes leave tombstones,
	// and a table whose tombstones run out of room grows — a fresh
	// allocation every few windows of a log that checkpoints and view
	// changes churn. Cleared, every window starts from an empty table
	// with the capacity the largest one needed.
	clear(r.log)
	for _, es := range s.log {
		e := r.newEntry()
		e.view = es.view
		e.digest = es.digest
		e.batch = es.batch
		e.prePrepare = es.prePrepare
		es.prepares.restoreInto(&e.prepares)
		es.commits.restoreInto(&e.commits)
		e.prepared = es.prepared
		e.committed = es.committed
		e.executed = es.executed
		if len(es.badIdx) > 0 {
			e.badIdx = make(map[int]bool, len(es.badIdx))
			for k, v := range es.badIdx {
				e.badIdx[k] = v
			}
		}
		r.log[es.seq] = e
	}
	r.pending = append(s.pendingBuf[:0], s.pending...)
	r.admitted = append(r.admitted[:0], s.admitted...)
	r.batchTimer = s.batchTimer
	r.slowTimer = s.slowTimer
	r.lastReply = append(r.lastReply[:0], s.lastReply...)
	clear(r.pendingForwarded)
	for k, fw := range s.pendingForwarded {
		*fw.at = fw.val
		r.pendingForwarded[k] = fw.at
	}
	r.singleTimer = s.singleTimer
	clear(r.reqTimers)
	for k, v := range s.reqTimers {
		r.reqTimers[k] = v
	}
	clear(r.pendingBad)
	//avdlint:allow restore refill: each iteration writes only its own map key from a fresh copy
	for k, v := range s.pendingBad {
		r.pendingBad[k] = append([]seqIdx(nil), v...)
	}
	//avdlint:allow restore drain: freed vote sets are fully reset on reuse, so drain order is not observable
	for seq, cs := range r.checkpoints {
		r.freeCkptSet(cs)
		delete(r.checkpoints, seq)
	}
	//avdlint:allow restore refill: pooled vote sets are fully overwritten per key before use
	for seq, by := range s.checkpoints {
		cs := r.newCkptSet()
		by.restoreInto(cs)
		r.checkpoints[seq] = cs
	}
	r.dropViewChanges()
	//avdlint:allow restore refill: pooled view-change sets are fully overwritten per key before use
	for view, by := range s.viewChanges {
		set := r.newVCSet()
		set.mask = by.mask
		copy(set.by, by.by)
		r.viewChanges[view] = set
	}
	r.newViewTimer = s.newViewTimer
	r.nvTimeout = s.nvTimeout
	r.stateDigest = s.stateDigest
	r.stats = s.stats
}

// ApplyByzantine (re-)activates the replica's ByzantineBehavior after
// its fields were changed by the deployment harness: it fills in the
// slow-proposal interval default and starts the pacing timer when the
// replica is currently a slow primary. The harness calls this at
// measurement start — on a master's first run and on every later fork
// alike — so attacks arm identically in both.
func (r *Replica) ApplyByzantine() {
	if r.byz == nil {
		return
	}
	if r.byz.SlowPrimary && r.byz.SlowInterval <= 0 {
		r.byz.SlowInterval = r.cfg.ViewChangeTimeout * 9 / 10
	}
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
}

// ClientState is a restorable capture of one client.
type ClientState struct {
	running    bool
	view       uint64
	seq        uint64
	curDone    bool
	sentAt     sim.Time
	replies    []uint64
	repMask    uint64
	retryTimer sim.Timer
	curRetry   time.Duration
	retryFor   uint64
	broadcast  bool
	mac        faultinject.Counter
	stats      ClientStats
}

// Snapshot captures the client's complete mutable state, including its
// generateMAC call counter and the schedule armed on it.
func (c *Client) Snapshot() *ClientState {
	s := &ClientState{
		running:    c.running,
		view:       c.view,
		seq:        c.seq,
		curDone:    c.curDone,
		sentAt:     c.sentAt,
		replies:    append([]uint64(nil), c.replies...),
		repMask:    c.repMask,
		retryTimer: c.retryTimer,
		curRetry:   c.curRetry,
		retryFor:   c.retryFor,
		broadcast:  c.ccfg.Broadcast,
		mac:        c.mac,
		stats:      c.stats,
	}
	return s
}

// Restore rolls the client back to the captured state.
func (c *Client) Restore(s *ClientState) {
	c.running = s.running
	c.view = s.view
	c.seq = s.seq
	c.curDone = s.curDone
	c.sentAt = s.sentAt
	copy(c.replies, s.replies)
	c.repMask = s.repMask
	c.retryTimer = s.retryTimer
	c.curRetry = s.curRetry
	c.retryFor = s.retryFor
	c.ccfg.Broadcast = s.broadcast
	c.mac = s.mac
	c.stats = s.stats
}

// SetPlan arms the plan's rules on PointGenerateMAC, keeping the call
// count that has been advancing since deployment boot.
func (c *Client) SetPlan(plan faultinject.Plan) { c.mac.Arm(plan, PointGenerateMAC) }

// SetBroadcast toggles first-transmission broadcast (the colluding
// client of the slow-primary attack); harnesses arm it per run at
// measurement start.
func (c *Client) SetBroadcast(on bool) { c.ccfg.Broadcast = on }
