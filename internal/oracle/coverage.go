package oracle

import "math/bits"

// Coverage is the abstract-timeline digest of one run: the execution
// feedback that turns blind hyperspace search into coverage-guided
// search (Mallory-style greybox fuzzing; see PAPERS.md and DESIGN.md
// §12). It is a deterministic pure function of the run's oracle event
// stream, so forked and cold executions of one scenario produce
// identical digests bit for bit.
//
// The digest deliberately has two resolutions. Timeline is the exact
// order-sensitive fold of every event — the determinism witness: any
// divergence between two executions of the same scenario changes it.
// Behaviors abstracts the same stream into a set of behavior features
// (which kind→kind transitions occurred per node, how far per-node
// commit counts got in powers of two, how far terms inflated) and folds
// the distinct features order-insensitively; runs that differ only in
// raw throughput collapse onto one Behaviors digest, while runs that
// exercised a new interleaving structure — a crash during an election,
// a commit after a restart — get a new one. Corpus admission keys on
// Behaviors; Timeline tells identical schedules apart from merely
// equivalent ones.
type Coverage struct {
	// Timeline is the order-sensitive multiply-xor fold of the full
	// event stream (kind, node, seq, term, digest per event).
	Timeline uint64
	// Behaviors is the order-insensitive XOR-fold of the distinct
	// behavior features the run exhibited.
	Behaviors uint64
	// BehaviorCount is how many distinct features fed Behaviors.
	BehaviorCount uint32
}

// IsZero reports whether the digest was never computed (degraded runs
// that panicked before measurement, and results decoded from
// pre-coverage checkpoints). A computed digest is never zero: the
// timeline fold starts at a nonzero basis and a zero final value is a
// 2^-64 accident.
func (c Coverage) IsZero() bool { return c == Coverage{} }

const (
	covOffset64 = 14695981039346656037
	covPrime64  = 1099511628211

	// Abstract event ids pack (kind, node) into one small integer so the
	// transition set fits a dense bitmap: kinds and nodes are clamped to
	// the ranges below (both shipped targets stay far inside them).
	covKindBits = 2
	covNodeBits = 6
	covMaxKind  = 1 << covKindBits
	covMaxNode  = 1 << covNodeBits
	covMaxID    = covMaxKind * covMaxNode
)

// covFold folds one 64-bit value into an FNV-1a hash byte by byte. It
// is reserved for the rare paths (feature hashing); the per-event
// timeline fold uses the cheap covMix fingerprint instead.
func covFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= covPrime64
		v >>= 8
	}
	return h
}

// covMix is the splitmix64 finalizer: full 64-bit avalanche in six
// arithmetic ops. The timeline fold runs on every oracle event of every
// test, so it gets the cheap mixer; byte-wise FNV here measurably slows
// oracle-heavy campaigns.
func covMix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// covFeature hashes one behavior feature; class separates the feature
// families so e.g. a transition and a commit bucket can never collide
// structurally.
func covFeature(class, a, b uint64) uint64 {
	h := covFold(covOffset64, class)
	h = covFold(h, a)
	return covFold(h, b)
}

// covAbstractID maps an event to its abstract (kind, node) id.
func covAbstractID(ev Event) uint32 {
	k := uint32(ev.Kind) - 1
	if k >= covMaxKind {
		k = covMaxKind - 1
	}
	n := uint32(0)
	if ev.Node > 0 {
		n = uint32(ev.Node)
		if n >= covMaxNode {
			n = covMaxNode - 1
		}
	}
	return k<<covNodeBits | n
}

// fold is a Model's coverage state: it folds the event stream into the
// run's Coverage digest. Like the invariant tables it indexes dense
// structures instead of hashing into maps: the transition set is a bitmap
// and per-node commit counts are a slice, both allocated at their full
// clamped size up front — 8 KB for the bitmap, one word per clampable node
// — so observe never grows them and costs a few indexed loads.
type fold struct {
	timeline  uint64
	behaviors uint64 // XOR of covFeature hashes of the distinct transitions
	count     uint32 // distinct transitions folded into behaviors
	prev      uint32 // previous abstract id + 1; 0 = stream start
	edges     []uint64
	commits   []uint64 // per-node commit counts
	maxTerm   uint64
}

func newFold() fold {
	return fold{
		timeline: covOffset64,
		edges:    make([]uint64, covMaxID*covMaxID/64),
		commits:  make([]uint64, covMaxNode),
	}
}

func (c *fold) observe(ev Event) {
	// Order-sensitive fold: mix the event's fields into one fingerprint
	// (distinct odd multipliers keep the fields from cancelling), then
	// xor-multiply it into the running hash. Any reordering, insertion
	// or field change anywhere in the stream changes the final value.
	fp := covMix(uint64(ev.Kind)*0x9e3779b97f4a7c15 ^
		uint64(uint32(ev.Node))*0xc2b2ae3d27d4eb4f ^
		ev.Seq*0x165667b19e3779f9 ^
		ev.Term*0x27d4eb2f165667c5 ^
		ev.Digest*0x85ebca77c2b2ae63)
	c.timeline = (c.timeline ^ fp) * covPrime64

	id := covAbstractID(ev)
	if c.prev != 0 {
		edge := (c.prev-1)*covMaxID + id
		word, bit := edge>>6, edge&63
		if c.edges[word]&(1<<bit) == 0 {
			c.edges[word] |= 1 << bit
			c.behaviors ^= covFeature(1, uint64(c.prev-1), uint64(id))
			c.count++
		}
	}
	c.prev = id + 1

	switch ev.Kind {
	case EventCommit:
		c.commits[min(max(ev.Node, 0), covMaxNode-1)]++
	case EventLeader:
		c.maxTerm = max(c.maxTerm, ev.Term)
	}
}

// digest returns the run's coverage so far. The end-of-run bucket
// features (log2 of per-node commit counts, log2 of the maximum term)
// are folded here rather than per event, so observe never inserts a
// feature for every count increment.
func (c *fold) digest() Coverage {
	b, n := c.behaviors, c.count
	for node, cnt := range c.commits {
		if cnt == 0 {
			continue
		}
		b ^= covFeature(2, uint64(node), uint64(bits.Len64(cnt)))
		n++
	}
	if c.maxTerm > 0 {
		b ^= covFeature(3, uint64(bits.Len64(c.maxTerm)), 0)
		n++
	}
	return Coverage{Timeline: c.timeline, Behaviors: b, BehaviorCount: n}
}
