package pbft

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"avd/internal/mac"
	"avd/internal/sim"
	"avd/internal/simnet"
)

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
// pre-prepare (see Arena), whose batch is always the entry's batch. The
// zero entry is a sequence number the replica knows nothing about.
type logEntry struct {
	view       uint64
	digest     uint64
	batch      []*Request
	prePrepare *PrePrepare
	// bad marks the batch indices whose client MAC failed verification at
	// this replica. While any is set the entry is "poisoned": the replica
	// refuses to prepare it. Because the request digest covers only the
	// request body (client, seq, op) and not the transport-level
	// authenticator, a later retransmission of the same request with
	// valid MACs *heals* the index (the real implementation fetches
	// missing/unauthenticated requests the same way). A batch holds at
	// most BatchSize+1 requests (an equivocating primary's padded
	// variant), which Config.Validate keeps within the mask.
	bad [2]uint64
	// prepares and commits are vote masks over replica ids; the digest
	// each replica voted for is in replicaState.votes.
	prepares  uint64
	commits   uint64
	prepared  bool
	committed bool
	executed  bool
	// sealed marks poison no retransmission heals any more: the replica
	// restarted since, and forgot which requests it was waiting on.
	sealed bool
}

// poisoned reports whether the entry still has unauthenticated requests.
func (e *logEntry) poisoned() bool { return e.bad != [2]uint64{} }

// reset clears agreement state when the entry is superseded by a higher
// view's pre-prepare, dropping its hold on the pre-prepare it had.
func (e *logEntry) reset(mem *Arena, view uint64) {
	e.resetKeepVotes(mem, view)
	e.prepares = 0
	e.commits = 0
}

// resetKeepVotes is reset minus the vote sets: same-view votes buffered
// before the pre-prepare arrived survive (see acceptPrePrepare).
func (e *logEntry) resetKeepVotes(mem *Arena, view uint64) {
	mem.dropPrePrepare(e.prePrepare)
	*e = logEntry{view: view, prepares: e.prepares, commits: e.commits, executed: e.executed}
}

// drop empties the entry, dropping its hold on its pre-prepare.
func (e *logEntry) drop(mem *Arena) {
	mem.dropPrePrepare(e.prePrepare)
	*e = logEntry{}
}

// forwarded tracks a request received directly from a client: the copy
// itself, which the record holds, and whether any received copy carried a
// MAC this replica could verify (used for healing and for surviving
// re-proposals).
type forwarded struct {
	req      *Request
	verified bool
}

// checkpointVote is one replica's checkpoint at one sequence number.
type checkpointVote struct {
	seq     uint64
	digest  uint64
	replica int
}

// replicaState is what a replica changes as it runs: Snapshot copies it
// by value and clones its tables, and Restore copies it back. The rest of
// Replica is set at construction.
type replicaState struct {
	crashed      bool
	crashReason  string
	view         uint64
	inViewChange bool
	pendingView  uint64

	seqCounter uint64 // primary: last assigned sequence number
	lastExec   uint64
	lowWater   uint64
	// log is the agreement state of the sequence numbers above lowWater,
	// seq at index seq-lowWater-1: it grows as sequence numbers arrive and
	// shifts down when lowWater moves (advanceWatermark). votes holds the
	// digests behind its entries' vote masks, 2N an entry: each replica's
	// prepare, then each replica's commit.
	log   []logEntry
	votes []uint64
	// healable says a log entry may hold poison a verified request heals:
	// acceptPrePrepare sets it, and a healPoisoned scan that leaves no such
	// entry clears it, so a request skips the scan while nothing waits.
	healable bool

	// Primary batching state. admitted records, densely by client
	// address, the highest request seq this primary has admitted into a
	// batch and not seen a view change since: client seqs are issued
	// monotonically, so one word replaces a RequestKey set for
	// pending-duplicate suppression.
	pending    []*Request
	admitted   []uint64
	batchTimer sim.Timer
	slowTimer  sim.Timer

	// Client bookkeeping: the last reply sent per client address, by
	// value — a reply on the wire belongs to its delivery (executeBatch).
	lastReply []lastReply

	// Client-request view-change timers (§6). pendingForwarded holds the
	// requests this replica received directly from clients and has not
	// seen execute ("such messages" in the paper's wording).
	pendingForwarded byClient[forwarded]
	singleTimer      sim.Timer           // SingleTimer mode
	reqTimers        byClient[sim.Timer] // PerRequestTimer mode

	// checkpoints holds the checkpoint votes above the low watermark,
	// sorted by sequence number, then replica.
	checkpoints []checkpointVote
	stateDigest uint64

	// viewChanges holds the view changes received for views above the
	// current one, sorted by target view, then sender.
	viewChanges  []*ViewChange
	newViewTimer sim.Timer
	nvTimeout    time.Duration

	stats ReplicaStats
}

// Replica is one PBFT replica. All methods run on the simulation
// goroutine.
type Replica struct {
	replicaState

	id    int
	cfg   Config
	eng   *sim.Engine
	clock int // engine clock identity: every local timer schedules through it
	net   *simnet.Network
	byz   *ByzantineBehavior

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
	// borrowed says the tables borrow takes from the pool are out, for
	// Park to return.
	borrowed bool //avdlint:ephemeral run-scoped: borrow sets it and Park clears it

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
		replicaState:         replicaState{nvTimeout: cfg.NewViewTimeout},
		id:                   id,
		cfg:                  cfg,
		eng:                  net.Engine(),
		net:                  net,
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
	r.borrow(&replicaState{})
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

// at returns the log entry of seq, nil when the log does not reach it.
func (r *Replica) at(seq uint64) *logEntry {
	if seq <= r.lowWater || seq-r.lowWater > uint64(len(r.log)) {
		return nil
	}
	return &r.log[seq-r.lowWater-1]
}

// entry returns the log entry of seq, which must be above the low
// watermark, growing the log to reach it. The pointer is into the log:
// after a call that may execute (and so advance the watermark) or
// propose, look the entry up again.
func (r *Replica) entry(seq uint64) *logEntry {
	for seq-r.lowWater > uint64(len(r.log)) {
		r.log = append(r.log, logEntry{})
		r.votes = append(r.votes, make([]uint64, 2*r.cfg.N)...)
	}
	return &r.log[seq-r.lowWater-1]
}

// votesOf returns the prepare (or, with commit, the commit) vote mask of
// the entry of seq and the digests behind it.
func (r *Replica) votesOf(seq uint64, commit bool) (*uint64, []uint64) {
	i, n := int(seq-r.lowWater-1), r.cfg.N
	d := r.votes[2*n*i : 2*n*(i+1)]
	if commit {
		return &r.log[i].commits, d[n:]
	}
	return &r.log[i].prepares, d[:n]
}

// vote records replica id's prepare (or commit) for digest d at seq.
func (r *Replica) vote(seq uint64, commit bool, id int, d uint64) {
	mask, digests := r.votesOf(seq, commit)
	*mask |= 1 << uint(id)
	digests[id] = d
}

// matching returns the replicas whose prepares (or commits) at seq vote
// for digest d.
func (r *Replica) matching(seq uint64, commit bool, d uint64) uint64 {
	mask, digests := r.votesOf(seq, commit)
	m := uint64(0)
	for v := *mask; v != 0; v &= v - 1 {
		if i := bits.TrailingZeros64(v); digests[i] == d {
			m |= 1 << uint(i)
		}
	}
	return m
}

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
	for i := range r.log {
		r.log[i].drop(r.mem)
	}
	r.log = r.log[:0]
	r.votes = r.votes[:0]
	r.checkpoints = r.checkpoints[:0]
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
	for k, fw := r.pendingForwarded.next(RequestKey{}); fw != nil; k, fw = r.pendingForwarded.next(k) {
		r.mem.dropRequest(fw.req)
	}
	r.pendingForwarded.reset()
	// The requests poisoned entries wait on were volatile too.
	for i := range r.log {
		r.log[i].sealed = true
	}
	r.healable = false
	r.viewChanges = shift(r.viewChanges, len(r.viewChanges))
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
	fw := r.pendingForwarded.find(key)
	if fw == nil {
		fw = r.pendingForwarded.add(key)
		fw.req = req
		r.mem.holdRequest(req)
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

// healPoisoned resolves poisoned log entries waiting on a valid copy of
// the request: since the batch digest covers request bodies, a verified
// retransmission authenticates the stored copy. Entries whose last bad
// index heals proceed to prepare, in sequence order.
func (r *Replica) healPoisoned(key RequestKey) {
	if !r.healable {
		return
	}
	r.healable = false
	for seq := r.lowWater + 1; seq <= r.lowWater+uint64(len(r.log)); seq++ {
		e := r.at(seq)
		if e == nil || !e.poisoned() || e.sealed || e.executed {
			continue
		}
		for w := range e.bad {
			for m := e.bad[w]; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				if i < len(e.batch) && e.batch[i].Key() == key {
					e.bad[w] &^= 1 << uint(i%64)
				}
			}
		}
		if e.poisoned() {
			r.healable = true // still waiting on another request
			continue
		}
		// Fully healed: resume the agreement path we refused earlier.
		if r.inViewChange || e.view != r.view || e.prePrepare == nil {
			continue
		}
		r.vote(seq, false, r.id, e.digest)
		r.sendPrepare(e.view, seq, e.digest)
		r.checkPrepared(seq)
		r.checkCommitted(seq)
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
	entry := r.entry(seq)
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
	r.checkPrepared(seq)
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
	entry := r.entry(seq)
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
	r.checkPrepared(seq)
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
	entry := r.entry(pp.SeqNo)
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
		r.checkCommitted(pp.SeqNo)
		return
	}
	r.vote(pp.SeqNo, false, r.id, pp.Digest)
	r.sendPrepare(pp.View, pp.SeqNo, pp.Digest)
	r.checkPrepared(pp.SeqNo)
	r.checkCommitted(pp.SeqNo)
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
		if fw := r.pendingForwarded.find(req.Key()); fw != nil && fw.verified {
			continue
		}
		entry.bad[i/64] |= 1 << uint(i%64)
	}
	if entry.poisoned() {
		r.healable = true
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
	entry := r.entry(p.SeqNo)
	if entry.prePrepare == nil {
		// Vote buffered ahead of the pre-prepare: tag its view so the
		// pre-prepare can tell whether to keep it.
		entry.view = p.View
	} else if entry.view != p.View {
		return
	}
	r.vote(p.SeqNo, false, p.Replica, p.Digest)
	r.checkPrepared(p.SeqNo)
}

// checkPrepared promotes the entry of seq to prepared (pre-prepare
// accepted plus 2F matching prepares from distinct backups) and emits our
// commit.
func (r *Replica) checkPrepared(seq uint64) {
	entry := r.at(seq)
	if entry == nil || entry.prepared || entry.poisoned() || entry.prePrepare == nil {
		return
	}
	if bits.OnesCount64(r.matching(seq, false, entry.digest)) < r.cfg.prepareQuorum() {
		return
	}
	entry.prepared = true
	c := r.mem.commits.Get()
	*c = Commit{View: entry.view, SeqNo: seq, Digest: entry.digest, Replica: r.id}
	c.Auth = r.auth()
	r.mem.share(&c.holders, r.cfg.N-1)
	r.vote(seq, true, r.id, entry.digest)
	r.net.BroadcastOwned(r.Addr(), r.replicaAddrs(), c)
	r.checkCommitted(seq)
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
	entry := r.entry(c.SeqNo)
	if entry.prePrepare == nil {
		entry.view = c.View
	} else if entry.view != c.View {
		return
	}
	r.vote(c.SeqNo, true, c.Replica, c.Digest)
	r.checkCommitted(c.SeqNo)
}

// checkCommitted promotes the entry of seq to committed at quorum 2F+1 and
// drives in-order execution. A replica still holding the batch as
// poisoned executes on the commit quorum anyway (standing in for PBFT's
// state transfer), so correct replicas converge even when outvoted on a
// MAC check.
func (r *Replica) checkCommitted(seq uint64) {
	entry := r.at(seq)
	if entry == nil || entry.committed || entry.prePrepare == nil {
		return
	}
	if !entry.prepared && !entry.poisoned() {
		return
	}
	if bits.OnesCount64(r.matching(seq, true, entry.digest)) < r.cfg.commitQuorum() {
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
		entry := r.at(r.lastExec + 1)
		if entry == nil || !entry.committed || entry.executed {
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
	// superseded by the commit quorum.
	entry.bad = [2]uint64{}
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
		if t := r.reqTimers.add(key); !t.Active() {
			*t = r.eng.ScheduleSkewed(r.clock, r.cfg.ViewChangeTimeout, r.reqTimerFn)
		}
	}
}

// onRequestExecuted updates timers when a request executes.
func (r *Replica) onRequestExecuted(key RequestKey) {
	fw := r.pendingForwarded.find(key)
	if fw == nil {
		return
	}
	r.mem.dropRequest(fw.req)
	r.pendingForwarded.del(key)
	switch r.cfg.TimerMode {
	case SingleTimer:
		// The bug: executing ANY directly-received request resets the
		// single timer, granting the primary a fresh full period even
		// though other forwarded requests still pend.
		r.singleTimer.Stop()
		if r.pendingForwarded.n > 0 && !r.inViewChange {
			r.singleTimer = r.eng.ScheduleSkewed(r.clock, r.cfg.ViewChangeTimeout, r.reqTimerFn)
		}
	case PerRequestTimer:
		if t := r.reqTimers.find(key); t != nil {
			t.Stop()
			r.reqTimers.del(key)
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
	for k, t := r.reqTimers.next(RequestKey{}); t != nil; k, t = r.reqTimers.next(k) {
		t.Stop()
	}
	r.reqTimers.reset()
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
	v := checkpointVote{seq: cp.SeqNo, digest: cp.Digest, replica: cp.Replica}
	i, found := slices.BinarySearchFunc(r.checkpoints, v, func(a, b checkpointVote) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.replica, b.replica))
	})
	if found {
		r.checkpoints[i] = v
	} else {
		r.checkpoints = slices.Insert(r.checkpoints, i, v)
	}
	// Count agreement on the digest this checkpoint proposes.
	matching := 0
	for _, o := range r.checkpoints {
		if o.seq == cp.SeqNo && o.digest == cp.Digest {
			matching++
		}
	}
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
	k := int(min(stable-r.lowWater, uint64(len(r.log))))
	for i := range r.log[:k] {
		r.log[i].drop(r.mem)
	}
	r.log = shift(r.log, k)
	r.votes = shift(r.votes, 2*r.cfg.N*k)
	r.lowWater = stable
	k = 0
	for k < len(r.checkpoints) && r.checkpoints[k].seq < stable {
		k++
	}
	r.checkpoints = shift(r.checkpoints, k)
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
