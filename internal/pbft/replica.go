package pbft

import (
	"fmt"
	"math/bits"
	"time"

	"avd/internal/mac"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// voteSet is a dense vote record over replica ids: a presence bitmask
// plus one digest slot per replica. It replaces the per-entry
// map[int]uint64 vote maps, whose iteration and per-entry allocation
// dominated the agreement path (checkPrepared/checkCommitted) in
// campaign profiles. Replica ids must be < 64 (Config.Validate enforces
// N <= 64).
type voteSet struct {
	mask    uint64
	digests []uint64 // indexed by replica id, len N
}

func (v *voteSet) set(id int, d uint64) {
	v.mask |= 1 << uint(id)
	v.digests[id] = d
}

// countMatching counts votes for digest d.
func (v *voteSet) countMatching(d uint64) int {
	matching := 0
	m := v.mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if v.digests[i] == d {
			matching++
		}
	}
	return matching
}

// ByzantineBehavior configures a faulty replica. The zero value (or a nil
// pointer) is a correct replica. The only replica-side behavior the paper
// exercises is the "slow primary": a primary that executes just enough
// requests to keep the (buggy) single view-change timer from firing.
type ByzantineBehavior struct {
	// SlowPrimary makes the replica, when primary, propose exactly one
	// single-request batch per SlowInterval instead of batching eagerly.
	SlowPrimary bool
	// SlowInterval is the proposal period; it defaults to 90% of the
	// view-change timeout, the largest interval that beats the timer.
	SlowInterval time.Duration
	// ColludeWith, when non-empty, makes the slow primary serve only
	// these client addresses, ignoring correct clients entirely (§6:
	// "the primary can ignore all messages from correct clients").
	ColludeWith map[simnet.Addr]bool
	// Equivocate makes the replica, when primary, propose conflicting
	// batches for the same sequence number: the lowest-id backup receives
	// a variant padded with a null request (a different digest over the
	// same client payloads) plus a matching commit vote, everyone else
	// the true batch. Against a correct quorum implementation the
	// conflicting variant can never gather a certificate; combined with
	// Config.QuorumBug it makes correct replicas execute different
	// batches at one sequence number, which is the injected agreement
	// violation the oracle tests detect.
	Equivocate bool
}

// ReplicaStats counts protocol activity at one replica.
type ReplicaStats struct {
	BatchesProposed   uint64
	BatchesExecuted   uint64
	RequestsExecuted  uint64
	NullsExecuted     uint64
	RejectedBatches   uint64 // pre-prepares refused: client MAC failed
	RejectedRequests  uint64 // direct/forwarded requests dropped: MAC failed
	ForwardedRequests uint64
	TimerViewChanges  uint64 // view changes initiated by the request timer
	ViewsInstalled    uint64
	CheckpointsStable uint64
	StateTransfers    uint64 // committed-quorum executions of rejected batches
	Crashes           uint64 // injected crash-restart faults (not protocol-defect crashes)
	Restarts          uint64 // injected restarts after a crash fault
}

// logEntry tracks one sequence number's agreement state. It holds its
// pre-prepare (see Arena), whose batch is always the entry's batch.
type logEntry struct {
	view       uint64
	digest     uint64
	batch      []*Request
	prePrepare *PrePrepare
	// badIdx holds batch indices whose client MAC failed verification at
	// this replica. While non-empty the entry is "poisoned": the replica
	// refuses to prepare it. Because the request digest covers only the
	// request body (client, seq, op) and not the transport-level
	// authenticator, a later retransmission of the same request with
	// valid MACs *heals* the index (the real implementation fetches
	// missing/unauthenticated requests the same way).
	badIdx    map[int]bool
	prepares  voteSet // replica -> digest voted
	commits   voteSet
	prepared  bool
	committed bool
	executed  bool
}

// poisoned reports whether the entry still has unauthenticated requests.
func (e *logEntry) poisoned() bool { return len(e.badIdx) > 0 }

// reset clears agreement state when the entry is superseded by a higher
// view's pre-prepare, dropping its hold on the pre-prepare it had.
func (e *logEntry) reset(mem *Arena, view uint64) {
	e.resetKeepVotes(mem, view)
	e.prepares.mask = 0
	e.commits.mask = 0
}

// resetKeepVotes is reset minus the vote sets: same-view votes buffered
// before the pre-prepare arrived survive (see acceptPrePrepare).
func (e *logEntry) resetKeepVotes(mem *Arena, view uint64) {
	mem.dropPrePrepare(e.prePrepare)
	e.view = view
	e.digest = 0
	e.batch = nil
	e.prePrepare = nil
	e.badIdx = nil
	e.prepared = false
	e.committed = false
}

// seqIdx locates one request inside the log: sequence number and batch
// index.
type seqIdx struct {
	seq uint64
	idx int
}

// forwarded tracks a request received directly from a client: the copy
// itself, which the record holds, and whether any received copy carried a
// MAC this replica could verify (used for healing and for surviving
// re-proposals).
type forwarded struct {
	req      *Request
	verified bool
}

// Replica is one PBFT replica. All methods run on the simulation
// goroutine.
type Replica struct {
	id    int
	cfg   Config
	eng   *sim.Engine
	clock int // engine clock identity: every local timer schedules through it
	net   *simnet.Network
	byz   *ByzantineBehavior

	crashed      bool
	crashReason  string
	view         uint64
	inViewChange bool
	pendingView  uint64

	seqCounter uint64 // primary: last assigned sequence number
	lastExec   uint64
	lowWater   uint64
	log        map[uint64]*logEntry
	// entryFree recycles log entries (and their vote-set backing) across
	// watermark advances and snapshot restores.
	//avdlint:derived free list: Restore rebuilds it from the entries the snapshot's log no longer references
	entryFree []*logEntry

	// Primary batching state. admitted records, densely by client
	// address, the highest request seq this primary has admitted into a
	// batch and not seen a view change since: client seqs are issued
	// monotonically, so one word replaces the RequestKey set (whose
	// hashing was a per-request cost) for pending-duplicate suppression.
	pending    []*Request
	admitted   []uint64
	batchTimer sim.Timer
	slowTimer  sim.Timer

	// Client bookkeeping: the last reply sent per client address, by
	// value — a reply on the wire belongs to its delivery (executeBatch).
	// Addresses are small and dense, so a slice beats the map this used
	// to be (the lookup runs once per executed request per replica).
	lastReply []lastReply

	// Client-request view-change timers (§6). pendingForwarded holds the
	// requests this replica received directly from clients and has not
	// seen execute ("such messages" in the paper's wording).
	pendingForwarded map[RequestKey]*forwarded
	singleTimer      sim.Timer                // SingleTimer mode
	reqTimers        map[RequestKey]sim.Timer // PerRequestTimer mode

	// pendingBad indexes poisoned log slots by request key so that a
	// valid retransmission can heal them.
	pendingBad map[RequestKey][]seqIdx

	// Checkpoints: seq -> per-replica digest votes (pooled via ckptFree).
	checkpoints map[uint64]*voteSet
	//avdlint:derived free list: Restore rebuilds it from the vote sets the snapshot's checkpoints no longer reference
	ckptFree    []*voteSet
	stateDigest uint64

	// View change state: target view -> the view changes received for it
	// (pooled via vcFree).
	viewChanges map[uint64]*vcSet
	//avdlint:derived free list: Restore rebuilds it from the sets the snapshot's view changes no longer reference
	vcFree       []*vcSet
	newViewTimer sim.Timer
	nvTimeout    time.Duration

	// Scratch of the view-change path (viewchange.go), dead between
	// calls: sequence numbers (preparedProofs' prepared entries,
	// enterView's dropped ones), enterView's re-forwarded request keys,
	// and computeNewViewSets' highest-view proof per sequence number.
	//avdlint:ephemeral call-scoped scratch, refilled from empty by every use
	seqs []uint64
	//avdlint:ephemeral call-scoped scratch, refilled from empty by every use
	keys []RequestKey
	//avdlint:ephemeral call-scoped scratch, emptied after every use
	best map[uint64]*PrePrepare

	// CrashOnBadReproposal models the implementation fragility the paper
	// triggered ("PBFT will perform a view change and crash", §6): the
	// view-change path dereferences request bodies that were discarded
	// when a batch was rejected for a bad client MAC. When true (the
	// default, matching the attacked codebase), a replica halts if it
	// (a) starts a view change while holding rejected entries, or
	// (b) must re-propose / re-prepare a batch it cannot authenticate.
	crashOnBadReproposal bool

	// Pre-bound timer callbacks: binding a method value allocates, so the
	// hot re-arm paths reuse these instead of rebinding per Schedule.
	proposeBatchFn func()
	reqTimerFn     func()
	slowTickFn     func()
	nvTimeoutFn    func()

	// allAddrs caches the replica address list handed to Broadcast.
	allAddrs []simnet.Addr

	// mem is the deployment's message arena (arena.go): replies, votes and
	// proposals built on the agreement hot path are carved from it. The
	// deployment captures and rewinds it; a replica built without
	// WithArena gets a private one.
	mem *Arena

	// commitObserver, when set, observes every batch execution: the
	// sequence number and the batch digest this replica committed there.
	// The deployment harness feeds these observations to protocol
	// oracles.
	commitObserver func(seq, digest uint64)

	// viewObserver, when set, observes every view installation (the
	// installing replica's id and the view it just entered). It takes
	// the node id so one closure can be shared by a whole deployment;
	// the harness turns the new primary's installations into leadership
	// events for the oracle stream.
	viewObserver func(node int, view uint64)

	stats ReplicaStats
}

// ReplicaOption customizes replica construction.
type ReplicaOption func(*Replica)

// WithByzantine installs a Byzantine behavior (nil leaves the replica
// correct).
func WithByzantine(b *ByzantineBehavior) ReplicaOption {
	return func(r *Replica) { r.byz = b }
}

// WithArena makes the replica carve its messages from the deployment's
// shared arena instead of a private one.
func WithArena(a *Arena) ReplicaOption {
	return func(r *Replica) { r.mem = a }
}

// WithCrashOnBadReproposal toggles the modeled view-change crash defect.
func WithCrashOnBadReproposal(on bool) ReplicaOption {
	return func(r *Replica) { r.crashOnBadReproposal = on }
}

// WithCommitObserver registers a callback invoked on the simulation
// goroutine for every batch this replica executes, carrying the sequence
// number and the committed batch digest. Protocol oracles consume these
// observations.
func WithCommitObserver(fn func(seq, digest uint64)) ReplicaOption {
	return func(r *Replica) { r.commitObserver = fn }
}

// WithViewObserver registers a callback invoked on the simulation
// goroutine whenever this replica installs a new view, carrying the
// replica's id and the installed view.
func WithViewObserver(fn func(node int, view uint64)) ReplicaOption {
	return func(r *Replica) { r.viewObserver = fn }
}

// NewReplica creates replica id and registers it on the network at
// address Addr(id).
func NewReplica(id int, cfg Config, net *simnet.Network, opts ...ReplicaOption) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("pbft: replica id %d out of range [0,%d)", id, cfg.N)
	}
	r := &Replica{
		id:                   id,
		cfg:                  cfg,
		eng:                  net.Engine(),
		net:                  net,
		log:                  make(map[uint64]*logEntry),
		pendingForwarded:     make(map[RequestKey]*forwarded),
		reqTimers:            make(map[RequestKey]sim.Timer),
		pendingBad:           make(map[RequestKey][]seqIdx),
		checkpoints:          make(map[uint64]*voteSet),
		viewChanges:          make(map[uint64]*vcSet),
		best:                 make(map[uint64]*PrePrepare),
		nvTimeout:            cfg.NewViewTimeout,
		crashOnBadReproposal: true,
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.mem == nil {
		r.mem = newPrivateArena()
	}
	r.clock = r.eng.RegisterClock()
	r.allAddrs = make([]simnet.Addr, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r.allAddrs[i] = simnet.Addr(i)
	}
	r.proposeBatchFn = r.proposeBatch
	r.reqTimerFn = r.onRequestTimerFired
	r.slowTickFn = r.onSlowTick
	r.nvTimeoutFn = func() {
		if !r.crashed && r.inViewChange {
			r.startViewChange(r.pendingView + 1)
		}
	}
	if r.byz != nil && r.byz.SlowPrimary && r.byz.SlowInterval <= 0 {
		r.byz.SlowInterval = cfg.ViewChangeTimeout * 9 / 10
	}
	net.Handle(simnet.Addr(id), r.onMessage)
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
	return r, nil
}

// Addr returns the replica's network address.
func (r *Replica) Addr() simnet.Addr { return simnet.Addr(r.id) }

// ID returns the replica identifier.
func (r *Replica) ID() int { return r.id }

// View returns the replica's current view.
func (r *Replica) View() uint64 { return r.view }

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() uint64 { return r.lastExec }

// StateDigest returns the running digest of the executed history; correct
// replicas that executed the same prefix agree on it.
func (r *Replica) StateDigest() uint64 { return r.stateDigest }

// Crashed reports whether the replica has halted, and why.
func (r *Replica) Crashed() (bool, string) { return r.crashed, r.crashReason }

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats { return r.stats }

// InViewChange reports whether the replica is between views.
func (r *Replica) InViewChange() bool { return r.inViewChange }

func (r *Replica) isPrimary() bool { return r.cfg.PrimaryOf(r.view) == r.id }

// IsPrimary reports whether the replica is the primary of its current
// view.
func (r *Replica) IsPrimary() bool { return r.isPrimary() }

func (r *Replica) isSlowPrimary() bool {
	return r.byz != nil && r.byz.SlowPrimary && r.isPrimary() && !r.inViewChange && !r.crashed
}

func (r *Replica) replicaAddrs() []simnet.Addr { return r.allAddrs }

// auth is this replica's authenticator for a message to every replica.
// It takes no digest: a covered field never changes after signing, so
// only who signed decides a verdict (see package mac).
func (r *Replica) auth() mac.Auth { return mac.Sign(r.id, r.cfg.N) }

// newEntry hands out a log entry from the pool, vote-set backing
// included.
func (r *Replica) newEntry() *logEntry {
	if n := len(r.entryFree); n > 0 {
		e := r.entryFree[n-1]
		r.entryFree = r.entryFree[:n-1]
		return e
	}
	return &logEntry{
		prepares: voteSet{digests: make([]uint64, r.cfg.N)},
		commits:  voteSet{digests: make([]uint64, r.cfg.N)},
	}
}

// freeEntry clears an entry dropped from the log, dropping its hold on its
// pre-prepare, and returns it to the pool.
func (r *Replica) freeEntry(e *logEntry) {
	e.reset(r.mem, 0)
	e.executed = false
	r.entryFree = append(r.entryFree, e)
}

// recycleEntry is freeEntry for Restore, which runs after the arena's
// rewind: the window that held the pre-prepare is gone, and nothing may
// touch what it carved.
func (r *Replica) recycleEntry(e *logEntry) {
	e.prePrepare = nil
	r.freeEntry(e)
}

// newCkptSet hands out a checkpoint vote set from the pool.
func (r *Replica) newCkptSet() *voteSet {
	if n := len(r.ckptFree); n > 0 {
		v := r.ckptFree[n-1]
		r.ckptFree = r.ckptFree[:n-1]
		v.mask = 0
		return v
	}
	return &voteSet{digests: make([]uint64, r.cfg.N)}
}

func (r *Replica) freeCkptSet(v *voteSet) { r.ckptFree = append(r.ckptFree, v) }

// lastReply is one slot of the dense last-reply table; sent tells a reply
// from a slot the table only grew past.
type lastReply struct {
	Reply
	sent bool
}

// lastReplyFor returns the cached last reply for a client, nil when none.
// The pointer is into the table: use it before the next setLastReply.
func (r *Replica) lastReplyFor(a simnet.Addr) *Reply {
	if int(a) >= 0 && int(a) < len(r.lastReply) && r.lastReply[a].sent {
		return &r.lastReply[a].Reply
	}
	return nil
}

// setLastReply returns the slot that records the last reply sent to a
// client, for the caller to fill, growing the dense table on first
// contact.
func (r *Replica) setLastReply(a simnet.Addr) *Reply {
	for int(a) >= len(r.lastReply) {
		r.lastReply = append(r.lastReply, lastReply{})
	}
	s := &r.lastReply[a]
	s.sent = true
	return &s.Reply
}

// resendReply retransmits a reply table entry as a fresh copy its
// delivery owns, exactly like the first transmission (executeBatch).
func (r *Replica) resendReply(last *Reply) {
	rp := r.mem.replies.Get()
	*rp = *last
	r.mem.share(&rp.holders, 1)
	r.net.SendOwned(r.Addr(), last.Client, rp)
}

// verifyPeer checks our entry of a peer replica's authenticator.
func (r *Replica) verifyPeer(peer int, auth mac.Auth) bool { return auth.Verifies(r.id, peer) }

// verifyClientMAC checks our entry of a client request's authenticator.
func (r *Replica) verifyClientMAC(req *Request) bool {
	return req.IsNull() || req.Auth.Verifies(r.id, int(req.Client))
}

func (r *Replica) crash(reason string) {
	if r.crashed {
		return
	}
	r.crashed = true
	r.crashReason = reason
	r.stopAllRequestTimers()
	r.batchTimer.Stop()
	r.slowTimer.Stop()
	r.newViewTimer.Stop()
}

// Clock returns the replica's engine clock identity; harnesses skew it to
// model local-timer drift (sim.Engine.SetSkew).
func (r *Replica) Clock() int { return r.clock }

// Crash halts the replica as an injected crash-restart fault (DESIGN.md
// §12). The persistence seam: a PBFT replica's durable state is what a
// real implementation writes to stable storage before acting — the
// agreement log, the executed history (lastExec, stateDigest, the
// last-reply cache), stable checkpoints and the current view. Everything
// else — pending batches, forwarded-request bookkeeping, in-flight
// view-change state, timers — is volatile and dies with the process
// regardless. keepDurable=true models a clean power cycle; false models
// losing the disk too: the replica will come back blank and rejoin
// through checkpoint state transfer. It reports whether the fault took
// effect (false when the replica was already down, e.g. from a
// protocol-defect crash — a dead process cannot be killed again, and the
// injector must not later revive it).
func (r *Replica) Crash(keepDurable bool) bool {
	if r.crashed {
		return false
	}
	r.crash("injected: crash-restart fault")
	r.stats.Crashes++
	if keepDurable {
		return true
	}
	//avdlint:allow crash wipe: freed entries are fully reset on reuse, so drain order is not observable
	for seq, e := range r.log {
		r.freeEntry(e)
		delete(r.log, seq)
	}
	//avdlint:allow crash wipe: freed vote sets are fully reset on reuse, so drain order is not observable
	for seq, cs := range r.checkpoints {
		r.freeCkptSet(cs)
		delete(r.checkpoints, seq)
	}
	r.view = 0
	r.seqCounter = 0
	r.lastExec = 0
	r.lowWater = 0
	r.stateDigest = 0
	r.lastReply = r.lastReply[:0]
	return true
}

// Restart revives a crashed replica: durable state is whatever Crash left
// behind, volatile state is rebuilt from scratch (fresh process). The
// replica rejoins in its persisted view with no pending work, no buffered
// view-change state and no timers armed; peers' traffic and checkpoint
// state transfer bring it back up to date.
func (r *Replica) Restart() {
	if !r.crashed {
		return
	}
	r.crashed = false
	r.crashReason = ""
	r.stats.Restarts++
	r.dropPending()
	clear(r.admitted)
	//avdlint:allow restart wipe: dropping a hold is commutative, and released messages are fully reset on reuse
	for _, fw := range r.pendingForwarded {
		r.mem.dropRequest(fw.req)
	}
	clear(r.pendingForwarded)
	clear(r.pendingBad)
	r.dropViewChanges()
	r.inViewChange = false
	r.pendingView = 0
	r.nvTimeout = r.cfg.NewViewTimeout
	if r.isSlowPrimary() {
		r.armSlowTimer()
	}
}

// onMessage dispatches a delivered network message.
func (r *Replica) onMessage(from simnet.Addr, payload any) {
	if r.crashed {
		return
	}
	switch m := payload.(type) {
	case *Request:
		r.onDirectRequest(m)
	case *ForwardedRequest:
		r.onForwardedRequest(m)
	case *PrePrepare:
		r.onPrePrepare(int(from), m)
	case *Prepare:
		r.onPrepare(m)
	case *Commit:
		r.onCommit(m)
	case *Checkpoint:
		r.onCheckpoint(m)
	case *ViewChange:
		r.onViewChange(m)
	case *NewView:
		r.onNewView(int(from), m)
	}
}

// --- Client request path -------------------------------------------------

// onDirectRequest handles a request received straight from a client.
func (r *Replica) onDirectRequest(req *Request) {
	key := req.Key()
	// Executed already? Re-send the cached reply.
	if last := r.lastReplyFor(req.Client); last != nil && last.Seq >= req.Seq {
		if last.Seq == req.Seq {
			r.resendReply(last)
		}
		return
	}
	if r.isPrimary() && !r.inViewChange {
		r.primaryAdmit(req)
		return
	}
	// Backup (or mid view change): forward to the primary and start the
	// view-change timer. The implementation forwards regardless of MAC
	// validity — authentication happens on the agreement path — which is
	// why corrupted retransmissions still wind the timer (§6).
	valid := r.verifyClientMAC(req)
	fw, ok := r.pendingForwarded[key]
	if !ok {
		fw = r.mem.forwarded.Get()
		fw.req, fw.verified = req, false
		r.mem.holdRequest(req)
		r.pendingForwarded[key] = fw
		r.stats.ForwardedRequests++
	}
	if valid {
		fw.verified = true
		if fw.req != req {
			r.mem.holdRequest(req)
			r.mem.dropRequest(fw.req)
			fw.req = req
		}
		r.healPoisoned(key)
	}
	if !r.inViewChange {
		r.forward(req, r.cfg.PrimaryOf(r.view))
		r.armRequestTimer(key)
	}
}

// forward relays a client request to the primary in a ForwardedRequest,
// which holds the request until its delivery has run.
func (r *Replica) forward(req *Request, primary int) {
	fm := r.mem.fwdMsgs.Get()
	fm.Request, fm.Replica = req, r.id
	r.mem.share(&fm.holders, 1)
	r.mem.holdRequest(req)
	r.net.SendOwned(r.Addr(), simnet.Addr(primary), fm)
}

// healPoisoned resolves poisoned log slots waiting on a valid copy of the
// request: since the batch digest covers request bodies, a verified
// retransmission authenticates the stored copy. Entries whose last bad
// index heals proceed to prepare.
func (r *Replica) healPoisoned(key RequestKey) {
	slots, ok := r.pendingBad[key]
	if !ok {
		return
	}
	delete(r.pendingBad, key)
	for _, si := range slots {
		entry, ok := r.log[si.seq]
		if !ok || entry.executed || !entry.badIdx[si.idx] {
			continue
		}
		if si.idx >= len(entry.batch) || entry.batch[si.idx].Key() != key {
			continue
		}
		delete(entry.badIdx, si.idx)
		if entry.poisoned() {
			continue
		}
		// Fully healed: resume the agreement path we refused earlier.
		if r.inViewChange || entry.view != r.view || entry.prePrepare == nil {
			continue
		}
		entry.prepares.set(r.id, entry.digest)
		r.sendPrepare(entry.view, si.seq, entry.digest)
		r.checkPrepared(si.seq, entry)
		r.checkCommitted(si.seq, entry)
	}
}

// onForwardedRequest handles a backup-relayed client request (primary).
func (r *Replica) onForwardedRequest(fw *ForwardedRequest) {
	if !r.isPrimary() || r.inViewChange {
		return
	}
	req := fw.Request
	if last := r.lastReplyFor(req.Client); last != nil && last.Seq >= req.Seq {
		if last.Seq == req.Seq {
			r.resendReply(last)
		}
		return
	}
	r.primaryAdmit(req)
}

// primaryAdmit runs the primary's admission path for a client request.
func (r *Replica) primaryAdmit(req *Request) {
	if int(req.Client) < len(r.admitted) && r.admitted[req.Client] >= req.Seq {
		return
	}
	if r.isSlowPrimary() {
		// The slow primary buffers requests and proposes on its own
		// clock; in collusion mode it ignores everyone else.
		if len(r.byz.ColludeWith) > 0 && !r.byz.ColludeWith[req.Client] {
			return
		}
		if !r.verifyClientMAC(req) {
			r.stats.RejectedRequests++
			return
		}
		r.admit(req)
		return
	}
	if !r.verifyClientMAC(req) {
		// The primary verifies its own authenticator entry before
		// assigning a sequence number; failures are dropped silently.
		r.stats.RejectedRequests++
		return
	}
	r.admit(req)
	if len(r.pending) >= r.cfg.BatchSize {
		r.proposeBatch()
		return
	}
	if !r.batchTimer.Active() {
		r.batchTimer = r.eng.ScheduleSkewed(r.clock, r.cfg.BatchDelay, r.proposeBatchFn)
	}
}

// admit records the request as admitted and buffers it for batching.
func (r *Replica) admit(req *Request) {
	for int(req.Client) >= len(r.admitted) {
		r.admitted = append(r.admitted, 0)
	}
	r.admitted[req.Client] = req.Seq
	r.appendPending(req)
}

// appendPending buffers a request for the next batch; the buffer holds
// it, and the pre-prepare that proposes it takes the hold over. Proposed
// batches are resliced prefixes of the buffer that escape into the log,
// so the buffer lives in the arena with them: it grows a thousand-odd
// slots at a time and the whole trail is rewound with the window.
func (r *Replica) appendPending(req *Request) {
	r.mem.holdRequest(req)
	r.pending = r.mem.batches.Append(r.pending, req)
}

// dropPending discards the buffered requests.
func (r *Replica) dropPending() {
	for _, req := range r.pending {
		r.mem.dropRequest(req)
	}
	r.pending = nil
}

// proposeBatch emits a pre-prepare for the currently buffered requests.
func (r *Replica) proposeBatch() {
	if r.crashed || r.inViewChange || !r.isPrimary() || len(r.pending) == 0 {
		return
	}
	r.batchTimer.Stop()
	for len(r.pending) > 0 {
		if r.seqCounter+1 > r.lowWater+r.cfg.WindowSize {
			// Watermark window full: wait for a checkpoint to advance.
			return
		}
		n := len(r.pending)
		if n > r.cfg.BatchSize {
			n = r.cfg.BatchSize
		}
		// Reslice instead of copying the tail: the batch prefix escapes
		// into the log/pre-prepare, and later appends write past it.
		batch := r.pending[:n:n]
		r.pending = r.pending[n:]
		r.seqCounter++
		r.sendPrePrepare(r.seqCounter, batch)
	}
}

// sendPrePrepare broadcasts and locally accepts a pre-prepare, which takes
// over the pending buffer's holds on the batch's requests.
func (r *Replica) sendPrePrepare(seq uint64, batch []*Request) {
	if r.byz != nil && r.byz.Equivocate {
		r.sendEquivocalPrePrepare(seq, batch)
		return
	}
	r.stats.BatchesProposed++
	entry := r.getEntry(seq)
	if entry.prePrepare != nil && entry.view == r.view {
		// Already proposed at this seq in this view.
		for _, req := range batch {
			r.mem.dropRequest(req)
		}
		return
	}
	digest := BatchDigest(batch)
	pp := r.mem.prePrepares.Get()
	*pp = PrePrepare{
		View:   r.view,
		SeqNo:  seq,
		Batch:  batch,
		Digest: digest,
		Auth:   r.auth(),
	}
	r.mem.share(&pp.holders, r.cfg.N-1)
	r.setPrePrepare(entry, r.view, pp)
	r.net.BroadcastOwned(r.Addr(), r.replicaAddrs(), pp)
	r.checkPrepared(seq, entry)
}

// setPrePrepare supersedes the entry's agreement state with view's
// pre-prepare pp, which the entry holds from now on.
func (r *Replica) setPrePrepare(entry *logEntry, view uint64, pp *PrePrepare) {
	entry.reset(r.mem, view)
	entry.digest = pp.Digest
	entry.batch = pp.Batch
	entry.prePrepare = pp
	r.mem.holdPrePrepare(pp)
}

// sendEquivocalPrePrepare is the equivocating primary's proposal path:
// the lowest-id backup gets a null-padded variant of the batch (same
// client payloads, different digest) plus this replica's commit vote for
// it, everyone else — and the local log — gets the true batch. The
// extra commit vote is what lets the variant reach the (buggy,
// Config.QuorumBug) F+1 commit quorum at the victim. Both proposals are
// heap objects nothing counts, so the pending buffer's holds on the
// batch's requests are never dropped.
func (r *Replica) sendEquivocalPrePrepare(seq uint64, batch []*Request) {
	victim := -1
	for i := 0; i < r.cfg.N; i++ {
		if i != r.id {
			victim = i
			break
		}
	}
	altBatch := append(append([]*Request(nil), batch...), NullRequest())
	altDigest := BatchDigest(altBatch)
	altPP := &PrePrepare{
		View:   r.view,
		SeqNo:  seq,
		Batch:  altBatch,
		Digest: altDigest,
		Auth:   r.auth(),
	}
	digest := BatchDigest(batch)
	pp := &PrePrepare{
		View:   r.view,
		SeqNo:  seq,
		Batch:  batch,
		Digest: digest,
		Auth:   r.auth(),
	}
	r.stats.BatchesProposed++
	entry := r.getEntry(seq)
	if entry.prePrepare != nil && entry.view == r.view {
		return // already proposed at this seq in this view
	}
	r.setPrePrepare(entry, r.view, pp)
	for _, to := range r.replicaAddrs() {
		if int(to) == r.id {
			continue
		}
		if int(to) == victim {
			r.net.Send(r.Addr(), to, altPP)
			altC := &Commit{View: r.view, SeqNo: seq, Digest: altDigest, Replica: r.id}
			altC.Auth = r.auth()
			r.net.Send(r.Addr(), to, altC)
		} else {
			r.net.Send(r.Addr(), to, pp)
		}
	}
	r.checkPrepared(seq, entry)
}

func (r *Replica) getEntry(seq uint64) *logEntry {
	e, ok := r.log[seq]
	if !ok {
		e = r.newEntry()
		r.log[seq] = e
	}
	return e
}

// --- Agreement ------------------------------------------------------------

func (r *Replica) onPrePrepare(from int, pp *PrePrepare) {
	if r.inViewChange || pp.View != r.view {
		return
	}
	if from != r.cfg.PrimaryOf(pp.View) || from == r.id {
		return
	}
	if pp.SeqNo <= r.lowWater || pp.SeqNo > r.lowWater+r.cfg.WindowSize {
		return
	}
	if !r.verifyPeer(from, pp.Auth) {
		return
	}
	if BatchDigest(pp.Batch) != pp.Digest {
		return
	}
	entry := r.getEntry(pp.SeqNo)
	if entry.prePrepare != nil && entry.view == pp.View {
		return // first pre-prepare for (view, seq) wins
	}
	if entry.view > pp.View {
		return
	}
	accepted := r.acceptPrePrepare(pp, entry)
	if !accepted {
		// Poisoned: no prepare from us, but commits buffered from the
		// quorum can still certify the batch (state-transfer surrogate).
		r.checkCommitted(pp.SeqNo, entry)
		return
	}
	entry.prepares.set(r.id, pp.Digest)
	r.sendPrepare(pp.View, pp.SeqNo, pp.Digest)
	r.checkPrepared(pp.SeqNo, entry)
	r.checkCommitted(pp.SeqNo, entry)
}

// sendPrepare broadcasts this replica's prepare vote; its deliveries are
// its holders.
func (r *Replica) sendPrepare(view, seq, digest uint64) {
	prep := r.mem.prepares.Get()
	*prep = Prepare{View: view, SeqNo: seq, Digest: digest, Replica: r.id}
	prep.Auth = r.auth()
	r.mem.share(&prep.holders, r.cfg.N-1)
	r.net.BroadcastOwned(r.Addr(), r.replicaAddrs(), prep)
}

// acceptPrePrepare verifies the batch's client MACs and stores the entry.
// It returns false when the batch is poisoned (Big MAC): the replica
// keeps the entry but refuses to prepare it until every unauthenticated
// request is healed by a validly-authenticated retransmission.
//
// Prepares and commits may have been buffered into the entry before the
// pre-prepare arrived (the network reorders); same-view votes survive
// the reset, otherwise a reordered delivery would permanently lose the
// quorum.
func (r *Replica) acceptPrePrepare(pp *PrePrepare, entry *logEntry) bool {
	if entry.view == pp.View {
		entry.resetKeepVotes(r.mem, pp.View)
	} else {
		entry.reset(r.mem, pp.View)
	}
	entry.digest = pp.Digest
	entry.prePrepare = pp
	entry.batch = pp.Batch
	r.mem.holdPrePrepare(pp)
	for i, req := range pp.Batch {
		if r.verifyClientMAC(req) {
			continue
		}
		// A previously verified direct copy authenticates the body.
		if fw, ok := r.pendingForwarded[req.Key()]; ok && fw.verified {
			continue
		}
		if entry.badIdx == nil {
			entry.badIdx = make(map[int]bool)
		}
		entry.badIdx[i] = true
		r.pendingBad[req.Key()] = append(r.pendingBad[req.Key()], seqIdx{seq: pp.SeqNo, idx: i})
	}
	if entry.poisoned() {
		r.stats.RejectedBatches++
		return false
	}
	return true
}

func (r *Replica) onPrepare(p *Prepare) {
	if r.inViewChange || p.View != r.view {
		return
	}
	if p.SeqNo <= r.lowWater || p.SeqNo > r.lowWater+r.cfg.WindowSize {
		return
	}
	if p.Replica == r.cfg.PrimaryOf(p.View) {
		return // the primary's pre-prepare is its prepare
	}
	if !r.verifyPeer(p.Replica, p.Auth) {
		return
	}
	entry := r.getEntry(p.SeqNo)
	if entry.prePrepare == nil {
		// Vote buffered ahead of the pre-prepare: tag its view so the
		// pre-prepare can tell whether to keep it.
		entry.view = p.View
	} else if entry.view != p.View {
		return
	}
	entry.prepares.set(p.Replica, p.Digest)
	r.checkPrepared(p.SeqNo, entry)
}

// checkPrepared promotes the entry to prepared (pre-prepare accepted plus
// 2F matching prepares from distinct backups) and emits our commit.
func (r *Replica) checkPrepared(seq uint64, entry *logEntry) {
	if entry.prepared || entry.poisoned() || entry.prePrepare == nil {
		return
	}
	if entry.prepares.countMatching(entry.digest) < r.cfg.prepareQuorum() {
		return
	}
	entry.prepared = true
	c := r.mem.commits.Get()
	*c = Commit{View: entry.view, SeqNo: seq, Digest: entry.digest, Replica: r.id}
	c.Auth = r.auth()
	r.mem.share(&c.holders, r.cfg.N-1)
	entry.commits.set(r.id, entry.digest)
	r.net.BroadcastOwned(r.Addr(), r.replicaAddrs(), c)
	r.checkCommitted(seq, entry)
}

func (r *Replica) onCommit(c *Commit) {
	if r.inViewChange || c.View != r.view {
		return
	}
	if c.SeqNo <= r.lowWater || c.SeqNo > r.lowWater+r.cfg.WindowSize {
		return
	}
	if !r.verifyPeer(c.Replica, c.Auth) {
		return
	}
	entry := r.getEntry(c.SeqNo)
	if entry.prePrepare == nil {
		entry.view = c.View
	} else if entry.view != c.View {
		return
	}
	entry.commits.set(c.Replica, c.Digest)
	r.checkCommitted(c.SeqNo, entry)
}

// checkCommitted promotes the entry to committed at quorum 2F+1 and
// drives in-order execution. A replica still holding the batch as
// poisoned executes on the commit quorum anyway (standing in for PBFT's
// state transfer), so correct replicas converge even when outvoted on a
// MAC check.
func (r *Replica) checkCommitted(seq uint64, entry *logEntry) {
	if entry.committed || entry.prePrepare == nil {
		return
	}
	if !entry.prepared && !entry.poisoned() {
		return
	}
	if entry.commits.countMatching(entry.digest) < r.cfg.commitQuorum() {
		return
	}
	if entry.poisoned() {
		r.stats.StateTransfers++
	}
	entry.committed = true
	r.tryExecute()
}

// tryExecute executes committed entries in sequence order.
func (r *Replica) tryExecute() {
	for {
		entry, ok := r.log[r.lastExec+1]
		if !ok || !entry.committed || entry.executed {
			return
		}
		r.lastExec++
		entry.executed = true
		r.executeBatch(r.lastExec, entry)
		if r.lastExec%r.cfg.CheckpointInterval == 0 {
			r.emitCheckpoint(r.lastExec)
		}
	}
}

func (r *Replica) executeBatch(seq uint64, entry *logEntry) {
	r.stats.BatchesExecuted++
	if r.commitObserver != nil {
		r.commitObserver(seq, entry.digest)
	}
	// Execution settles the entry: any unauthenticated copies are
	// superseded by the commit quorum. The map is empty outside
	// MAC-corruption scenarios; skipping the per-request hashing there
	// keeps clean execution off the map entirely.
	entry.badIdx = nil
	if len(r.pendingBad) > 0 {
		for _, req := range entry.batch {
			delete(r.pendingBad, req.Key())
		}
	}
	for _, req := range entry.batch {
		if req.IsNull() {
			r.stats.NullsExecuted++
			continue
		}
		if last := r.lastReplyFor(req.Client); last != nil && last.Seq >= req.Seq {
			continue // duplicate, already executed
		}
		r.stateDigest = fnv3(r.stateDigest, req.Digest(), seq)
		r.stats.RequestsExecuted++
		// The reply on the wire belongs to its delivery — the client's
		// handler is the last to read it and the network then hands it
		// back to the arena (Arena.Release) — and the table keeps its own
		// copy. Both are filled field by field. Reply has more fields than
		// the compiler keeps in registers, so a literal is built on the
		// stack and copied out, and a struct copy from one to the other
		// would reload, 16 bytes at a time, what was just stored 8 at a
		// time, which the store buffer cannot forward.
		reply := r.mem.replies.Get()
		reply.View = r.view
		reply.Replica = r.id
		reply.Client = req.Client
		reply.Seq = req.Seq
		reply.Result = r.stateDigest
		r.mem.share(&reply.holders, 1)
		slot := r.setLastReply(req.Client)
		slot.View = r.view
		slot.Replica = r.id
		slot.Client = req.Client
		slot.Seq = req.Seq
		slot.Result = r.stateDigest
		r.net.SendOwned(r.Addr(), req.Client, reply)
		r.onRequestExecuted(req.Key())
	}
}

// --- Client-request view-change timers (§6 of the paper) ------------------

// armRequestTimer starts the view-change timer for a request received
// directly from a client.
func (r *Replica) armRequestTimer(key RequestKey) {
	switch r.cfg.TimerMode {
	case SingleTimer:
		// The bug: one timer for the whole replica. Setting it again
		// while running is a no-op.
		if !r.singleTimer.Active() {
			r.singleTimer = r.eng.ScheduleSkewed(r.clock, r.cfg.ViewChangeTimeout, r.reqTimerFn)
		}
	case PerRequestTimer:
		if t, ok := r.reqTimers[key]; !ok || !t.Active() {
			r.reqTimers[key] = r.eng.ScheduleSkewed(r.clock, r.cfg.ViewChangeTimeout, r.reqTimerFn)
		}
	}
}

// onRequestExecuted updates timers when a request executes.
func (r *Replica) onRequestExecuted(key RequestKey) {
	if len(r.pendingForwarded) == 0 {
		return
	}
	fw, wasPending := r.pendingForwarded[key]
	if !wasPending {
		return
	}
	delete(r.pendingForwarded, key)
	r.mem.dropRequest(fw.req)
	switch r.cfg.TimerMode {
	case SingleTimer:
		// The bug: executing ANY directly-received request resets the
		// single timer, granting the primary a fresh full period even
		// though other forwarded requests still pend.
		r.singleTimer.Stop()
		if len(r.pendingForwarded) > 0 && !r.inViewChange {
			r.singleTimer = r.eng.ScheduleSkewed(r.clock, r.cfg.ViewChangeTimeout, r.reqTimerFn)
		}
	case PerRequestTimer:
		if t, ok := r.reqTimers[key]; ok {
			t.Stop()
			delete(r.reqTimers, key)
		}
	}
}

func (r *Replica) onRequestTimerFired() {
	if r.crashed || r.inViewChange {
		return
	}
	r.stats.TimerViewChanges++
	r.startViewChange(r.view + 1)
}

func (r *Replica) stopAllRequestTimers() {
	r.singleTimer.Stop()
	//avdlint:allow timer teardown: Stop cancels by handle and the engine orders events by (at, seq), not cancellation order
	for k, t := range r.reqTimers {
		t.Stop()
		delete(r.reqTimers, k)
	}
}

// --- Checkpoints -----------------------------------------------------------

func (r *Replica) emitCheckpoint(seq uint64) {
	cp := &Checkpoint{SeqNo: seq, Digest: r.stateDigest, Replica: r.id}
	cp.Auth = r.auth()
	r.recordCheckpoint(cp)
	r.net.Broadcast(r.Addr(), r.replicaAddrs(), cp)
}

func (r *Replica) onCheckpoint(cp *Checkpoint) {
	if !r.verifyPeer(cp.Replica, cp.Auth) {
		return
	}
	r.recordCheckpoint(cp)
}

func (r *Replica) recordCheckpoint(cp *Checkpoint) {
	if cp.SeqNo <= r.lowWater {
		return
	}
	byReplica, ok := r.checkpoints[cp.SeqNo]
	if !ok {
		byReplica = r.newCkptSet()
		r.checkpoints[cp.SeqNo] = byReplica
	}
	byReplica.set(cp.Replica, cp.Digest)
	// Count agreement on the digest this checkpoint proposes.
	matching := byReplica.countMatching(cp.Digest)
	// f+1 matching checkpoints form a weak certificate: at least one is
	// from a correct replica, which suffices to fetch state when we have
	// fallen behind (PBFT's state transfer).
	if matching >= r.cfg.F+1 && cp.SeqNo > r.lastExec {
		r.stateDigest = cp.Digest
		r.lastExec = cp.SeqNo
		r.stats.StateTransfers++
	}
	// 2f+1 matching make the checkpoint stable: the log can be trimmed.
	if matching < r.cfg.Quorum() {
		return
	}
	r.stats.CheckpointsStable++
	r.advanceWatermark(cp.SeqNo)
}

func (r *Replica) advanceWatermark(stable uint64) {
	if stable <= r.lowWater {
		return
	}
	r.lowWater = stable
	//avdlint:allow watermark GC: freed entries are fully reset on reuse, so drain order is not observable
	for seq, e := range r.log {
		if seq <= stable {
			r.freeEntry(e)
			delete(r.log, seq)
		}
	}
	//avdlint:allow watermark GC: freed vote sets are fully reset on reuse, so drain order is not observable
	for seq, cs := range r.checkpoints {
		if seq < stable {
			r.freeCkptSet(cs)
			delete(r.checkpoints, seq)
		}
	}
	if r.seqCounter < stable {
		r.seqCounter = stable
	}
	// Window may have reopened for buffered requests.
	if r.isPrimary() && !r.inViewChange && len(r.pending) > 0 && !r.isSlowPrimary() {
		r.proposeBatch()
	}
}

// --- Slow primary (Byzantine behavior) -------------------------------------

func (r *Replica) armSlowTimer() {
	r.slowTimer.Stop()
	r.slowTimer = r.eng.ScheduleSkewed(r.clock, r.byz.SlowInterval, r.slowTickFn)
}

// onSlowTick proposes exactly one single-request batch, then re-arms. One
// executed request per timer period is all it takes to keep the buggy
// single timer from ever firing (§6).
func (r *Replica) onSlowTick() {
	if r.crashed {
		return
	}
	if !r.isSlowPrimary() {
		return
	}
	if len(r.pending) > 0 {
		req := r.pending[0]
		r.pending = r.pending[1:]
		if r.seqCounter+1 <= r.lowWater+r.cfg.WindowSize {
			r.seqCounter++
			r.sendPrePrepare(r.seqCounter, []*Request{req})
		} else {
			r.mem.dropRequest(req)
		}
	}
	r.armSlowTimer()
}
