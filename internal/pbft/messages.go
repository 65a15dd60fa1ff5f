// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99) over the simulated network, faithfully reproducing the
// two implementation behaviors the paper's evaluation depends on:
//
//   - MAC authenticators on client requests, verified per receiver,
//     which make partial-corruption (Big MAC) attacks possible, and
//   - the client-request view-change timer at replicas, implemented either
//     per the spec (one timer per request) or as in the original codebase
//     (a single timer per replica — the "slow primary" bug of §6).
//
// The protocol includes request batching, the three-phase agreement
// (pre-prepare/prepare/commit), in-order execution with client replies,
// periodic checkpoints with watermark advancement, and the view-change /
// new-view sub-protocol with prepared-certificate re-proposal and null
// request gap filling.
package pbft

import (
	"fmt"

	"avd/internal/mac"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Request is a client request. Auth holds one MAC entry per replica,
// computed with the pairwise client-replica key; each replica verifies
// only its own entry. It holds no pointers, nor do Reply, Prepare, Commit
// and Checkpoint, so the collector never scans their slab chunks.
type Request struct {
	Client simnet.Addr
	// Seq is the client-local request number (PBFT's timestamp).
	Seq uint64
	// Op is the opaque operation identifier.
	Op uint64
	// Auth is the MAC authenticator, entry i for replica i.
	Auth mac.Auth
	// Retransmission marks a client retransmission (broadcast to all
	// replicas after a timeout).
	Retransmission bool
	holders        slab.Holders // see Arena
	// dig caches Digest(): batch digests and the execution fold each
	// rehash the same immutable body several times per request otherwise.
	// Zero means "not computed yet" (the digest is a folded FNV state,
	// which is never zero in practice).
	dig uint64
}

// Digest returns the request digest, which the authenticator covers.
func (r *Request) Digest() uint64 {
	if r.dig == 0 {
		r.dig = fnv3(uint64(r.Client), r.Seq, r.Op)
	}
	return r.dig
}

// Key identifies the request independent of its payload.
func (r *Request) Key() RequestKey { return RequestKey{Client: r.Client, Seq: r.Seq} }

// RequestKey identifies a client request (client address + client-local
// sequence number).
type RequestKey struct {
	Client simnet.Addr
	Seq    uint64
}

// String formats the key.
func (k RequestKey) String() string { return fmt.Sprintf("%v/%d", k.Client, k.Seq) }

// Reply is a replica's response to a client request.
type Reply struct {
	View    uint64
	Replica int
	Client  simnet.Addr
	Seq     uint64
	Result  uint64
	holders slab.Holders // see Arena
}

// PrePrepare is the primary's ordering proposal for one batch.
type PrePrepare struct {
	View  uint64
	SeqNo uint64
	// Batch carries the ordered requests (PBFT piggybacks big requests;
	// the simulation always piggybacks).
	Batch []*Request
	// Digest commits to the batch contents.
	Digest uint64
	// Auth authenticates the pre-prepare from the primary, entry i for
	// replica i.
	Auth    mac.Auth
	holders slab.Holders // see Arena
}

// Prepare is a backup's agreement vote for (View, SeqNo, Digest).
type Prepare struct {
	View    uint64
	SeqNo   uint64
	Digest  uint64
	Replica int
	Auth    mac.Auth
	holders slab.Holders // see Arena
}

// Commit is a replica's commit vote for (View, SeqNo, Digest).
type Commit struct {
	View    uint64
	SeqNo   uint64
	Digest  uint64
	Replica int
	Auth    mac.Auth
	holders slab.Holders // see Arena
}

// Checkpoint announces a replica's state digest at a checkpoint sequence
// number (every Config.CheckpointInterval executions).
type Checkpoint struct {
	SeqNo   uint64
	Digest  uint64
	Replica int
	Auth    mac.Auth
}

// PreparedProof certifies that a batch prepared at a replica: the
// pre-prepare it accepted plus 2f matching prepares. Proof messages are
// carried inside view changes so the new primary can re-propose them.
type PreparedProof struct {
	PrePrepare *PrePrepare
	Prepares   []*Prepare
}

// ViewChange asks to install NewView. LastStable is the replica's last
// stable checkpoint; Prepared carries proofs for batches prepared above
// it.
type ViewChange struct {
	NewView    uint64
	LastStable uint64
	Prepared   []PreparedProof
	Replica    int
	Auth       mac.Auth
}

// NewView is the new primary's view installation message: the 2f+1 view
// changes justifying it and the pre-prepares re-proposing prepared batches
// (gaps filled with null requests).
type NewView struct {
	View        uint64
	ViewChanges []*ViewChange
	PrePrepares []*PrePrepare
	Auth        mac.Auth
}

// ForwardedRequest relays a client request from a backup to the primary
// (the replica received it directly from the client, typically as a
// retransmission, and is not aware of it having executed).
type ForwardedRequest struct {
	Request *Request
	Replica int
	holders slab.Holders // see Arena
}

// Corrupt is the PBFT target's simnet.Corrupter: it garbles a protocol
// message into a new value (payloads are shared, so corruption must never
// mutate in place). The copy counts no holders; the delivery it rides owns
// nothing, so the original's hold stays taken and the batch the copy
// shares with it stays alive. Flipping the digest a vote or proposal
// speaks for changes a field its authenticator covers, so the copy's
// authenticator is garbled and the receiver rejects it — modelling bit rot
// that PBFT's MACs catch, which selectively erases agreement votes from
// the schedule. Client traffic is left alone (it has its own
// MAC-corruption tool).
func Corrupt(from, to simnet.Addr, payload any) any {
	switch m := payload.(type) {
	case *PrePrepare:
		c := *m
		c.Digest ^= 1
		c.Auth = c.Auth.Garble()
		c.holders = slab.Holders{}
		return &c
	case *Prepare:
		c := *m
		c.Digest ^= 1
		c.Auth = c.Auth.Garble()
		c.holders = slab.Holders{}
		return &c
	case *Commit:
		c := *m
		c.Digest ^= 1
		c.Auth = c.Auth.Garble()
		c.holders = slab.Holders{}
		return &c
	case *Checkpoint:
		c := *m
		c.Digest ^= 1
		c.Auth = c.Auth.Garble()
		return &c
	}
	return nil
}

// nullRequestOp marks null requests used to fill sequence gaps during
// view changes; they execute as no-ops and produce no replies.
const nullRequestOp = ^uint64(0)

// NullRequest returns the distinguished no-op request for gap filling.
func NullRequest() *Request {
	return &Request{Client: -1, Seq: 0, Op: nullRequestOp}
}

// IsNull reports whether the request is a gap-filling null request.
func (r *Request) IsNull() bool { return r.Op == nullRequestOp && r.Client == -1 }

// BatchDigest combines the digests of a batch's requests (word-folded
// FNV-1a, one multiply per request).
func BatchDigest(batch []*Request) uint64 {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	for _, r := range batch {
		h = (h ^ r.Digest()) * fnvPrime
	}
	return h
}

// fnv3 hashes three words with word-folded FNV-1a. Digest values only
// ever feed equality checks and further digests, so the word-at-a-time fold
// (8x fewer multiplies than the byte variant) preserves behavior.
func fnv3(a, b, c uint64) uint64 {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	h = (h ^ a) * fnvPrime
	h = (h ^ b) * fnvPrime
	h = (h ^ c) * fnvPrime
	return h
}
