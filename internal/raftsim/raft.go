// Package raftsim is AVD's second system under test: a minimal Raft
// (leader election + log replication, Ongaro & Ousterhout 2014) running
// over the same deterministic sim/simnet engines as the PBFT deployment.
//
// Its purpose in this repository is architectural: the paper's
// controller is system-agnostic, and raftsim proves the core.Target seam
// is real — the same Controller that finds the Big MAC attack against
// PBFT finds election-storm scenarios against Raft without a single line
// of search code changing. The attack surface exposed here
// is a network-level attacker who can periodically isolate the current
// leader (the LeaderFlap plugin): flapping the leader at the right
// cadence keeps the cluster in perpetual elections, collapsing the
// throughput observed by correct clients.
package raftsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Config is the Raft protocol configuration shared by all nodes.
type Config struct {
	// N is the cluster size (majorities are N/2+1).
	N int
	// HeartbeatInterval is the leader's AppendEntries period.
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout each
	// node draws after hearing from a leader or candidate.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// DoubleVoteBug injects a vote-accounting defect for oracle
	// validation: nodes grant RequestVotes without consulting votedFor,
	// so two candidates of the same term can both assemble majorities —
	// a genuine Election Safety violation (Raft §5.2) that the oracle
	// subsystem detects. Never enabled by default.
	DoubleVoteBug bool
}

// DefaultConfig returns a 5-node cluster with timers compressed the same
// way as the PBFT workload (EXPERIMENTS.md): tens of milliseconds
// instead of the textbook hundreds, so a 2-second measurement window
// spans many heartbeat and election-timeout periods.
func DefaultConfig() Config {
	return Config{
		N:                  5,
		HeartbeatInterval:  25 * time.Millisecond,
		ElectionTimeoutMin: 150 * time.Millisecond,
		ElectionTimeoutMax: 300 * time.Millisecond,
	}
}

// Validate reports structural problems with the configuration.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("raftsim: cluster size %d needs at least 1 node", c.N)
	}
	if c.N > 64 {
		// Vote tallies are kept in a 64-bit presence mask.
		return fmt.Errorf("raftsim: cluster size %d exceeds the supported maximum of 64", c.N)
	}
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("raftsim: heartbeat interval must be positive")
	}
	if c.ElectionTimeoutMin <= c.HeartbeatInterval {
		return fmt.Errorf("raftsim: election timeout min %v must exceed heartbeat interval %v",
			c.ElectionTimeoutMin, c.HeartbeatInterval)
	}
	if c.ElectionTimeoutMax <= c.ElectionTimeoutMin {
		return fmt.Errorf("raftsim: election timeout max %v must exceed min %v",
			c.ElectionTimeoutMax, c.ElectionTimeoutMin)
	}
	return nil
}

// seqAt reads a dense per-client sequence table (zero when the client
// has no entry yet).
func seqAt(s []uint64, a simnet.Addr) uint64 {
	if int(a) < len(s) {
		return s[a]
	}
	return 0
}

// seqPut writes a dense per-client sequence table, growing it in
// address-rounded blocks on first contact with a client address (the
// old one-element-at-a-time append was a per-client allocation storm on
// large populations).
func seqPut(s *[]uint64, a simnet.Addr, v uint64) {
	if int(a) >= len(*s) {
		need := int(a) + 1
		if cap(*s) < need {
			size := 2 * cap(*s)
			if size < need {
				size = need
			}
			if size < 64 {
				size = 64
			}
			grown := make([]uint64, need, size)
			copy(grown, *s)
			*s = grown
		} else {
			old := len(*s)
			*s = (*s)[:need]
			// The spare capacity may hold stale values from before a
			// snapshot restore truncated the table.
			clear((*s)[old:])
		}
	}
	(*s)[a] = v
}

// Entry is one replicated log entry: a client request awaiting
// commitment. It is 12 bytes because every node, capture and stocked
// buffer holds a log of them (DESIGN.md §11). A term is born only where a
// candidate increments it, a seq only where a client does, and a client
// address at NewClient: each checks the 32-bit limit there. Whatever
// compares, digests or reports an entry widens its fields to 64 bits.
type Entry struct {
	Term   uint32
	Client int32
	Seq    uint32
}

// --- Wire messages ----------------------------------------------------------

// RequestVote solicits a vote for an election (Raft §5.2).
type RequestVote struct {
	Term         uint64
	Candidate    int
	LastLogIndex uint64
	LastLogTerm  uint64
}

// RequestVoteReply answers a RequestVote.
type RequestVoteReply struct {
	Term    uint64
	From    int
	Granted bool
	holders slab.Holders // see Arena
}

// AppendEntries replicates log entries and doubles as the heartbeat
// (Raft §5.3).
type AppendEntries struct {
	Term         uint64
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
	// Leader is a node id; 32 bits leave room for the count in the word.
	Leader  int32
	holders slab.Holders // see Arena
}

// AppendEntriesReply answers an AppendEntries. MatchIndex is, on success,
// the last index the append verified; PrevLogIndex is the append's, the
// index a reject rejects; LastLogIndex is the follower's log length, the
// hint where its log ends.
type AppendEntriesReply struct {
	Term         uint64
	From         int
	MatchIndex   uint64
	PrevLogIndex uint64
	LastLogIndex uint64
	Success      bool
	holders      slab.Holders // see Arena
}

// ClientRequest is a client's closed-loop request addressed to the node
// it believes is the leader.
type ClientRequest struct {
	Client  simnet.Addr
	Seq     uint64
	holders slab.Holders // see Arena
}

// ClientReply answers a ClientRequest: OK once the entry is committed
// and applied, or a redirect carrying the replier's leader hint
// (Leader < 0 when unknown).
type ClientReply struct {
	Seq     uint64
	Leader  int
	OK      bool
	holders slab.Holders // see Arena
}

// --- Node -------------------------------------------------------------------

type role int

const (
	follower role = iota
	candidate
	leader
)

// NodeStats counts protocol activity at one node.
type NodeStats struct {
	// ElectionsStarted counts transitions to candidate (election storms
	// show up here).
	ElectionsStarted uint64
	// VotesGranted counts votes this node granted to others.
	VotesGranted uint64
	// TermsSeen is the highest term the node has entered.
	TermsSeen uint64
	// EntriesApplied counts log entries applied to the state machine.
	EntriesApplied uint64
	// Redirects counts client requests answered with a leader hint.
	Redirects uint64
	// AppendsRejected counts failed AppendEntries consistency checks.
	AppendsRejected uint64
	// AcksRefused counts acks a leader dropped: a match claimed past its log.
	AcksRefused uint64
	// Crashes / Restarts count injected crash-restart cycles (the
	// crashrestart fault plugin drives them).
	Crashes  uint64
	Restarts uint64
}

// nodeState is what a node changes as it runs: Snapshot copies it by
// value and clones its tables, and Restore copies it back. The rest of
// Node is set at construction, or lives for one run (shared, retired).
type nodeState struct {
	// crashed gates the message handler and timers: a crashed node is
	// silent until Restart.
	crashed bool

	role     role
	term     uint64
	votedFor int // -1 = none this term
	leader   int // -1 = unknown
	log      []Entry
	commit   uint64
	applied  uint64

	// votes is the ballot box for the node's current candidacy, a dense
	// presence mask over node ids (Config.Validate bounds N at 64).
	votes      uint64
	nextIndex  []uint64
	matchIndex []uint64
	// replicating is a leader's progress state per follower, a presence
	// mask like votes: set, the follower is in replicate (nextIndex runs
	// ahead of what it acked, one batch in flight); clear, in probe
	// (nextIndex waits for an ack or a heartbeat).
	replicating uint64
	// termStart is where the log's trailing run of current-term entries
	// begins, fixed on taking office: advanceCommit commits from it up.
	termStart uint64

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer

	// lastSeq deduplicates client requests at apply time: retransmitted
	// requests re-enter the log but mutate the state machine once. Client
	// addresses are small and dense, so both tables are slices indexed by
	// address (the lookups run per applied entry and per client request).
	lastSeq []uint64
	// pending tracks the highest uncommitted seq appended per client, so
	// a retransmission of an in-flight request is not appended twice.
	pending []uint64

	stats NodeStats
}

// Node is one Raft server. All methods run on the simulation goroutine.
//
// The persistence seam (DESIGN.md §11): term, votedFor and log are the
// node's durable state — what a real server fsyncs before answering — and
// everything else is volatile, rebuilt after a restart. Crash(false)
// models a server whose durable writes were lost (a dead disk, a
// misconfigured fsync): on Restart it rejoins at term 0 with an empty log
// and no memory of the votes it granted, which is exactly the state-loss
// fault the election-safety and durability oracles exist to catch.
type Node struct {
	nodeState

	id    int
	cfg   Config
	eng   *sim.Engine
	net   *simnet.Network
	clock int // sim.Engine clock id; skew drives this node's timers fast or slow

	// shared is the log's aliasing high-water mark: AppendEntries carry
	// sub-slices of the log, so a message in flight may read indices up
	// to shared, and they are never overwritten in place (truncate).
	shared uint64
	// retired holds the log arrays truncate replaced this run: messages in
	// flight may still read them, so they are let go at Park.
	retired [][]Entry //avdlint:ephemeral run-scoped: Park stocks the first array and drops the rest, and Snapshot drops the warm-up's, which the captured messages alias
	// borrowed says the log is a buffer borrowed since Restore, for Park
	// to return: an empty one may be nil.
	borrowed bool //avdlint:ephemeral run-scoped: Restore sets it and Park clears it

	electionFn  func()
	heartbeatFn func()

	// mem is the deployment's message arena (arena.go): every wire
	// message the node sends is carved from it, keeping the forked hot
	// path allocation-flat. The deployment captures and rewinds it; a
	// node built without WithArena gets a private one.
	mem *Arena

	// Oracle observers, invoked on the simulation goroutine: onLead when
	// the node assumes leadership for a term, onApply for every log
	// index the node applies (committed-entry identity included).
	onLead  func(term uint64)
	onApply func(index uint64, e Entry)
}

// NodeOption customizes node construction.
type NodeOption func(*Node)

// WithLeadObserver registers a callback invoked whenever the node wins
// an election, carrying the term it now leads.
func WithLeadObserver(fn func(term uint64)) NodeOption {
	return func(n *Node) { n.onLead = fn }
}

// WithArena makes the node carve its messages from the deployment's
// shared arena instead of a private one.
func WithArena(a *Arena) NodeOption {
	return func(n *Node) { n.mem = a }
}

// WithApplyObserver registers a callback invoked for every log index the
// node applies, carrying the index and the entry applied there.
func WithApplyObserver(fn func(index uint64, e Entry)) NodeOption {
	return func(n *Node) { n.onApply = fn }
}

// NewNode creates node id (address id on the network) and registers its
// message handler.
func NewNode(id int, cfg Config, net *simnet.Network, opts ...NodeOption) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("raftsim: node id %d out of range [0,%d)", id, cfg.N)
	}
	n := &Node{
		nodeState: nodeState{
			votedFor:   -1,
			leader:     -1,
			nextIndex:  make([]uint64, cfg.N),
			matchIndex: make([]uint64, cfg.N),
		},
		id:    id,
		cfg:   cfg,
		eng:   net.Engine(),
		net:   net,
		clock: net.Engine().RegisterClock(),
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.mem == nil {
		n.mem = newPrivateArena()
	}
	n.electionFn = n.onElectionTimeout
	n.heartbeatFn = n.onHeartbeat
	net.Handle(simnet.Addr(id), n.onMessage)
	return n, nil
}

// Start arms the initial election timer.
func (n *Node) Start() { n.resetElectionTimer() }

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// IsLeader reports whether the node currently believes it is leader.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the node's current leader hint (-1 when unknown).
func (n *Node) Leader() int { return n.leader }

// Commit returns the node's commit index.
func (n *Node) Commit() uint64 { return n.commit }

// LogLen returns the node's log length.
func (n *Node) LogLen() int { return len(n.log) }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Clock returns the node's sim.Engine clock id, through which harnesses
// arm per-node clock skew.
func (n *Node) Clock() int { return n.clock }

// Crash takes the node down: its timers stop and incoming messages fall
// on the floor until Restart. With keepDurable the term, vote and log
// survive (a clean power cycle); without it the durable state is lost
// too — the node will rejoin as a blank follower that can re-grant a vote
// it already cast, which is the fault that breaks Election Safety.
func (n *Node) Crash(keepDurable bool) {
	if n.crashed {
		return
	}
	n.crashed = true
	n.stats.Crashes++
	n.electionTimer.Stop()
	n.heartbeatTimer.Stop()
	if !keepDurable {
		n.term = 0
		n.votedFor = -1
		n.truncate(0)
	}
}

// Restart brings a crashed node back as a follower. Volatile state —
// role, leader hint, ballot box, commit/applied indices, replication
// cursors, client dedup tables — is rebuilt from scratch; durable state
// is whatever Crash left behind.
func (n *Node) Restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.stats.Restarts++
	n.role = follower
	n.leader = -1
	n.votes = 0
	n.replicating = 0
	n.commit = 0
	n.applied = 0
	for i := range n.nextIndex {
		n.nextIndex[i] = 0
		n.matchIndex[i] = 0
	}
	n.termStart = 0
	clear(n.lastSeq)
	clear(n.pending)
	n.resetElectionTimer()
}

func (n *Node) electionTimeout() time.Duration {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	return n.cfg.ElectionTimeoutMin + time.Duration(n.eng.Rand().Int63n(int64(span)))
}

func (n *Node) resetElectionTimer() {
	// Timers run on the node's own clock: skew makes this node's election
	// timeout fire early (fast clock) or late (slow clock) relative to its
	// peers, which is how stale-leader and premature-election schedules
	// enter the search space. Every AppendEntries received comes through
	// here, and Reset moves the pending timer without a queue operation.
	n.electionTimer = n.eng.ResetSkewed(n.electionTimer, n.clock, n.electionTimeout(), n.electionFn)
}

func (n *Node) lastLog() (index, term uint64) {
	if len(n.log) == 0 {
		return 0, 0
	}
	return uint64(len(n.log)), uint64(n.log[len(n.log)-1].Term)
}

// stepDown adopts a higher term as follower.
func (n *Node) stepDown(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = -1
		if term > n.stats.TermsSeen {
			n.stats.TermsSeen = term
		}
	}
	if n.role == leader {
		n.heartbeatTimer.Stop()
	}
	n.role = follower
	n.resetElectionTimer()
}

// onElectionTimeout starts an election (Raft §5.2).
func (n *Node) onElectionTimeout() {
	if n.role == leader || n.crashed {
		return
	}
	if n.term == math.MaxUint32 {
		panic(fmt.Sprintf("raftsim: node %d: term %d overflows a log entry's 32 bits", n.id, n.term))
	}
	n.role = candidate
	n.term++
	if n.term > n.stats.TermsSeen {
		n.stats.TermsSeen = n.term
	}
	n.votedFor = n.id
	n.leader = -1
	n.stats.ElectionsStarted++
	n.votes = 1 << uint(n.id)
	lastIdx, lastTerm := n.lastLog()
	rv := n.mem.votes.Get()
	*rv = RequestVote{Term: n.term, Candidate: n.id, LastLogIndex: lastIdx, LastLogTerm: lastTerm}
	for peer := 0; peer < n.cfg.N; peer++ {
		if peer != n.id {
			n.net.Send(simnet.Addr(n.id), simnet.Addr(peer), rv)
		}
	}
	n.resetElectionTimer()
	// A single-node cluster is its own majority.
	if bits.OnesCount64(n.votes) >= n.cfg.N/2+1 {
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = leader
	n.leader = n.id
	n.electionTimer.Stop()
	if n.onLead != nil {
		n.onLead(n.term)
	}
	lastIdx, _ := n.lastLog()
	for i := range n.nextIndex {
		n.nextIndex[i] = lastIdx + 1
		n.matchIndex[i] = 0
	}
	n.replicating = 0 // every follower starts in probe
	n.matchIndex[n.id] = lastIdx
	n.termStart = lastIdx + 1
	for n.termStart > 1 && uint64(n.log[n.termStart-2].Term) == n.term {
		n.termStart-- // a term re-run after state loss left entries of it behind
	}
	clear(n.pending)
	n.broadcastAppend()
	n.heartbeatTimer = n.eng.ResetSkewed(n.heartbeatTimer, n.clock, n.cfg.HeartbeatInterval, n.heartbeatFn)
}

func (n *Node) onHeartbeat() {
	if n.role != leader || n.crashed {
		return
	}
	n.broadcastAppend()
	n.heartbeatTimer = n.eng.ScheduleSkewed(n.clock, n.cfg.HeartbeatInterval, n.heartbeatFn)
}

// broadcastAppend sends each follower the entries from its nextIndex
// (empty when caught up: a pure heartbeat). A follower in replicate with
// entries unacknowledged gets them again from matchIndex+1: the batch or
// its ack was lost.
func (n *Node) broadcastAppend() {
	for peer := 0; peer < n.cfg.N; peer++ {
		if peer != n.id {
			if n.replicating&(1<<uint(peer)) != 0 {
				n.nextIndex[peer] = n.matchIndex[peer] + 1
			}
			n.sendAppend(peer)
		}
	}
}

// sendAppend sends peer the entries from its nextIndex on. In replicate
// nextIndex moves past them at once, so the next batch waits for their ack
// (onAppendEntriesReply); in probe it stays, and the entries go again with
// the next reply or heartbeat.
func (n *Node) sendAppend(peer int) {
	next := max(n.nextIndex[peer], 1)
	prevIdx := next - 1
	var prevTerm uint64
	if prevIdx > 0 {
		prevTerm = uint64(n.log[prevIdx-1].Term)
	}
	var entries []Entry
	if last := uint64(len(n.log)); last >= next {
		// Alias, don't copy: indices up to last are now read-only (shared).
		entries = n.log[prevIdx:last:last]
		n.shared = last
		if n.replicating&(1<<uint(peer)) != 0 {
			n.nextIndex[peer] = last + 1
		}
	}
	// Field by field, not a literal: AppendEntries is eight words, over the
	// four the compiler keeps in registers, so a literal is built on the
	// stack with 8-byte stores and copied out with 16-byte loads that the
	// store buffer cannot forward (EXPERIMENTS.md, PR 24 and 25).
	ae := n.mem.appends.Get()
	ae.Term = n.term
	ae.Leader = int32(n.id)
	ae.PrevLogIndex = prevIdx
	ae.PrevLogTerm = prevTerm
	ae.Entries = entries
	ae.LeaderCommit = n.commit
	n.mem.share(&ae.holders)
	n.net.SendOwned(simnet.Addr(n.id), simnet.Addr(peer), ae)
}

func (n *Node) onMessage(from simnet.Addr, payload any) {
	if n.crashed {
		return
	}
	switch m := payload.(type) {
	case *RequestVote:
		n.onRequestVote(m)
	case *RequestVoteReply:
		n.onRequestVoteReply(m)
	case *AppendEntries:
		n.onAppendEntries(m)
	case *AppendEntriesReply:
		n.onAppendEntriesReply(m)
	case *ClientRequest:
		n.onClientRequest(m)
	}
}

func (n *Node) onRequestVote(m *RequestVote) {
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	granted := false
	if m.Term == n.term && (n.votedFor == -1 || n.votedFor == m.Candidate || n.cfg.DoubleVoteBug) {
		// Up-to-date check (Raft §5.4.1).
		lastIdx, lastTerm := n.lastLog()
		if m.LastLogTerm > lastTerm || (m.LastLogTerm == lastTerm && m.LastLogIndex >= lastIdx) {
			granted = true
			n.votedFor = m.Candidate
			n.stats.VotesGranted++
			n.resetElectionTimer()
		}
	}
	rep := n.mem.voteReplies.Get()
	*rep = RequestVoteReply{Term: n.term, From: n.id, Granted: granted}
	n.mem.share(&rep.holders)
	n.net.SendOwned(simnet.Addr(n.id), simnet.Addr(m.Candidate), rep)
}

func (n *Node) onRequestVoteReply(m *RequestVoteReply) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != candidate || m.Term != n.term || !m.Granted {
		return
	}
	n.votes |= 1 << uint(m.From)
	if bits.OnesCount64(n.votes) >= n.cfg.N/2+1 {
		n.becomeLeader()
	}
}

func (n *Node) onAppendEntries(m *AppendEntries) {
	if m.Term > n.term || (m.Term == n.term && n.role != follower) {
		n.stepDown(m.Term)
	}
	if m.Term < n.term {
		n.sendAppendReply(m, false, 0)
		return
	}
	n.leader = int(m.Leader)
	n.resetElectionTimer()
	// Consistency check.
	if m.PrevLogIndex > 0 {
		if uint64(len(n.log)) < m.PrevLogIndex || uint64(n.log[m.PrevLogIndex-1].Term) != m.PrevLogTerm {
			n.stats.AppendsRejected++
			n.sendAppendReply(m, false, 0)
			return
		}
	}
	// Append new entries, truncating on conflict (Raft §5.3).
	idx := m.PrevLogIndex
	for _, e := range m.Entries {
		idx++
		if uint64(len(n.log)) >= idx {
			if n.log[idx-1].Term != e.Term {
				n.truncate(idx - 1)
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	// Commit no further than the append verified (Raft Figure 2: "index of
	// last new entry"): a stale tail past idx may not match the leader's.
	if c := min(m.LeaderCommit, idx); c > n.commit {
		n.commit = c
		n.applyCommitted()
	}
	n.sendAppendReply(m, true, idx)
}

// truncate cuts the log to its first keep entries: in place above the
// aliasing high-water mark; below it the kept prefix moves to a buffer
// borrowed from the pool that no message has seen, and the array it
// leaves, which messages in flight may still read, is retired until Park.
// Only appends a node sent as leader raise the mark, and the copy starts
// unshared, so a node copies at most once per term it led.
func (n *Node) truncate(keep uint64) {
	if keep < n.shared {
		n.retired = append(n.retired, n.log)
		n.log, n.shared = append(slab.BorrowLargest[Entry](n.mem.pool), n.log[:keep]...), 0
	}
	n.log = n.log[:keep]
}

// sendAppendReply answers m from the reply slab.
func (n *Node) sendAppendReply(m *AppendEntries, success bool, matchIdx uint64) {
	rep := n.mem.appendReplies.Get()
	*rep = AppendEntriesReply{Term: n.term, From: n.id, Success: success, MatchIndex: matchIdx,
		PrevLogIndex: m.PrevLogIndex, LastLogIndex: uint64(len(n.log))}
	n.mem.share(&rep.holders)
	n.net.SendOwned(simnet.Addr(n.id), simnet.Addr(m.Leader), rep)
}

// sendClientReply answers a ClientRequest from the reply slab.
func (n *Node) sendClientReply(client simnet.Addr, seq uint64, ok bool, leaderHint int) {
	rep := n.mem.replies.Get()
	*rep = ClientReply{Seq: seq, OK: ok, Leader: leaderHint}
	n.mem.share(&rep.holders)
	n.net.SendOwned(simnet.Addr(n.id), client, rep)
}

func (n *Node) onAppendEntriesReply(m *AppendEntriesReply) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != leader || m.Term != n.term {
		return
	}
	p, bit := m.From, uint64(1)<<uint(m.From)
	match, next := n.matchIndex[p], n.nextIndex[p]
	if !m.Success {
		probe := n.replicating&bit == 0
		if m.PrevLogIndex <= match {
			// Not a conflict: the follower acked that index. The exchange
			// was lost or garbled (or the follower lost its state), so the
			// leader replicates from matchIndex+1: in replicate it rewinds,
			// and the next request, ack or heartbeat sends; in probe it
			// moves to replicate and sends once. A copy a dup fault
			// delivers finds the follower in replicate and only rewinds.
			n.nextIndex[p] = match + 1
			if probe {
				n.replicating |= bit
				n.sendAppend(p)
			}
			return
		}
		if probe && m.PrevLogIndex != next-1 {
			return // an older probe's, as etcd's Progress.MaybeDecrTo tells
		}
		// A conflict: probe back to where the logs can match. nextIndex
		// moves to at most the rejected index, so a copy of this reject is
		// stale.
		n.nextIndex[p] = max(min(m.PrevLogIndex, m.LastLogIndex+1), match+1)
		n.replicating &^= bit
		n.sendAppend(p)
		return
	}
	if m.MatchIndex > uint64(len(n.log)) {
		// No follower holds more than it was sent: PrevLogIndex was garbled
		// in flight, and the claim would put nextIndex past the log.
		n.stats.AcksRefused++
		return
	}
	if m.MatchIndex < match {
		return // an older append's
	}
	if m.MatchIndex > match {
		match = m.MatchIndex
		n.matchIndex[p] = match
		n.advanceCommit()
	}
	if n.replicating&bit == 0 || next <= match {
		n.replicating |= bit
		n.nextIndex[p] = match + 1
	}
	// The ack that empties the pipe sends the next batch.
	if n.nextIndex[p] == match+1 && uint64(len(n.log)) > match {
		n.sendAppend(p)
	}
}

// advanceCommit commits the highest current-term index replicated on a
// majority (Raft §5.4.2: only current-term entries commit by counting):
// the (N/2+1)-th largest matchIndex, clamped to the log, provided every
// entry from it up carries the current term — it lies in the trailing
// run that starts at termStart. The work depends on N alone.
func (n *Node) advanceCommit() {
	ahead := 0
	for _, m := range n.matchIndex {
		if m > n.commit {
			ahead++
		}
	}
	if ahead < n.cfg.N/2+1 {
		return // most acks: no majority past the commit index yet
	}
	var buf [64]uint64 // Config.Validate bounds N at 64
	match := buf[:copy(buf[:], n.matchIndex)]
	slices.Sort(match)
	idx := min(match[len(match)-(n.cfg.N/2+1)], uint64(len(n.log)))
	if idx > n.commit && idx >= n.termStart {
		n.commit = idx
		n.applyCommitted()
	}
}

// applyCommitted applies newly committed entries; the leader answers the
// owning clients.
func (n *Node) applyCommitted() {
	for n.applied < n.commit {
		n.applied++
		e := n.log[n.applied-1]
		if n.onApply != nil {
			n.onApply(n.applied, e)
		}
		client, seq := simnet.Addr(e.Client), uint64(e.Seq)
		if seq > seqAt(n.lastSeq, client) {
			seqPut(&n.lastSeq, client, seq)
			n.stats.EntriesApplied++
		}
		if int(client) < len(n.pending) {
			n.pending[client] = 0
		}
		if n.role == leader {
			n.sendClientReply(client, seq, true, n.id)
		}
	}
}

func (n *Node) onClientRequest(m *ClientRequest) {
	if n.role != leader {
		n.stats.Redirects++
		n.sendClientReply(m.Client, m.Seq, false, n.leader)
		return
	}
	// Already applied (a late retransmission): answer immediately.
	if m.Seq <= seqAt(n.lastSeq, m.Client) {
		n.sendClientReply(m.Client, m.Seq, true, n.id)
		return
	}
	// A retransmission of a request in flight says its entry has not
	// committed yet; the apply path will answer it.
	if m.Seq > seqAt(n.pending, m.Client) {
		seqPut(&n.pending, m.Client, m.Seq)
		n.log = append(n.log, Entry{Term: uint32(n.term), Client: int32(m.Client), Seq: uint32(m.Seq)})
		n.matchIndex[n.id] = uint64(len(n.log))
		// A single-node cluster is its own majority: without peers there are
		// no AppendEntriesReply callbacks to drive the commit index forward.
		n.advanceCommit()
	}
	// Either way, followers in replicate with nothing in flight get what
	// they lack. Those with a batch in flight get it with the next; those
	// in probe, with the next reply or heartbeat.
	for peer := 0; peer < n.cfg.N; peer++ {
		if peer != n.id && n.replicating&(1<<uint(peer)) != 0 && n.nextIndex[peer] == n.matchIndex[peer]+1 {
			n.sendAppend(peer)
		}
	}
}
