// Package mac implements the message authentication PBFT uses: Auth, the
// authenticator every PBFT message carries, and the tag arithmetic it
// stands for (pairwise session keys and MAC vectors).
//
// PBFT authenticates point-to-point messages with a single MAC and
// one-to-many messages with an *authenticator*: a vector of MACs, one per
// receiving replica, each computed with the pairwise key shared between
// sender and that replica. Every receiver verifies only its own entry —
// the asymmetry that the Big MAC attack (Clement et al., NSDI'09) exploits
// and that the paper's MAC-corruption experiment targets.
//
// Authenticators are verdicts. Entry r of an authenticator that sender s
// computed over digest d, with c = 1 when the entry was corrupted,
// verifies at replica r, which expects sender p and recomputes digest d',
// iff
//
//	Sum(K(s,r), d) ^ c == Sum(K(p,r), d')
//
// Sum is a bijection of the digest for a fixed key and Pairwise keys are
// symmetric, so, barring a 64-bit collision (which the tag function
// assumes away anyway), that holds iff s == p, d == d' and c == 0. A field
// an authenticator covers never changes after signing; the one exception
// is a corrupter's copy, and the corrupter garbles the copy's
// authenticator (every entry fails, as it did when the changed digest was
// hashed). So the tag values are unobservable: a simulation can see which
// replicas accept their entry, never a tag. Auth holds exactly what
// decides that — the sender, the entry count and a mask of failing
// entries — in 16 pointer-free bytes, with no hashing on either side.
// FuzzVerdictMatchesTags checks it against the tag arithmetic below.
//
// The tag function is a fast keyed hash (FNV-1a over key‖message), not a
// cryptographic MAC. The simulation needs collision-freedom in practice
// and determinism, not cryptographic strength; real PBFT used UMAC32.
package mac

// Auth is an authenticator held as its verdicts: entry i verifies for a
// receiver that expects sender p iff i < n, p is the signer and bit i of
// bad is clear. The zero value verifies nothing, like a nil Authenticator.
type Auth struct {
	bad  uint64 // failing entries: corrupted, or all of them once garbled
	from int32  // the node whose pairwise keys computed the entries
	n    int32  // entries, one per receiving replica (at most 64)
}

// Sign returns the authenticator node from computes for n receivers, every
// entry valid (NewAuthenticator under Pairwise(from, i)).
func Sign(from, n int) Auth { return Auth{from: int32(from), n: int32(n)} }

// Corrupt returns a with entry i corrupted (Corrupt on its tag).
func (a Auth) Corrupt(i int) Auth {
	a.bad |= 1 << uint(i)
	return a
}

// Garble returns a with every entry failing: the authenticator of a copy
// whose covered digest changed after signing.
func (a Auth) Garble() Auth {
	a.bad = ^uint64(0)
	return a
}

// Verifies reports whether entry i verifies for a receiver that expects
// sender from: VerifyEntry(i, Pairwise(from, i), d) over the digest the
// signer covered.
func (a Auth) Verifies(i, from int) bool {
	return uint(i) < uint(a.n) && int(a.from) == from && a.bad&(1<<uint(i)) == 0
}

// Key is a pairwise session key.
type Key uint64

// Tag is a 64-bit message authentication tag.
type Tag uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit word into the running FNV-1a state. Folding whole
// words instead of bytes keeps the xor-multiply structure (each step is a
// bijection of the state, so collisions need distinct multi-word inputs)
// at an eighth of the multiplies; MAC generation was a top-three CPU site
// of a full-throughput deployment under the byte-at-a-time variant.
func mix(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

// Sum computes the tag of digest under key.
func Sum(key Key, digest uint64) Tag {
	return Tag(mix(mix(fnvOffset, uint64(key)), digest))
}

// Verify reports whether tag authenticates digest under key.
func Verify(key Key, digest uint64, tag Tag) bool { return Sum(key, digest) == tag }

// Corrupt returns a tag guaranteed not to verify for any digest whose
// correct tag was t (single deterministic bit flip).
func Corrupt(t Tag) Tag { return t ^ 1 }

// Authenticator is a MAC vector with one entry per receiving replica.
type Authenticator []Tag

// NewAuthenticator computes the authenticator of digest under the pairwise
// keys, one tag per key, in key order.
func NewAuthenticator(keys []Key, digest uint64) Authenticator {
	a := make(Authenticator, len(keys))
	for i, k := range keys {
		a[i] = Sum(k, digest)
	}
	return a
}

// VerifyEntry reports whether entry i of the authenticator verifies digest
// under key. Out-of-range entries fail verification.
func (a Authenticator) VerifyEntry(i int, key Key, digest uint64) bool {
	if i < 0 || i >= len(a) {
		return false
	}
	return Verify(key, digest, a[i])
}

// Clone returns a copy of the authenticator (callers mutate copies when
// corrupting entries, never the original).
func (a Authenticator) Clone() Authenticator {
	cp := make(Authenticator, len(a))
	copy(cp, a)
	return cp
}

// Keyring derives deterministic pairwise keys for a deployment. Real
// systems establish session keys via handshakes; the simulation derives
// them from node identities, which preserves the verification semantics.
type Keyring struct{ seed uint64 }

// NewKeyring returns a keyring for a deployment, seeded for determinism.
func NewKeyring(seed uint64) *Keyring { return &Keyring{seed: seed} }

// Pairwise returns the session key shared by nodes a and b (symmetric).
func (kr *Keyring) Pairwise(a, b int) Key {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return Key(mix(mix(mix(fnvOffset, kr.seed), uint64(lo)), uint64(hi)))
}
