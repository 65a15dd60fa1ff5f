package pbft

import "testing"

// TestComputeNewViewSetsDeterministicUnderEquivocation is the regression
// test for the map-order hazard avdlint's nondet analyzer flagged in
// computeNewViewSets: with a Byzantine primary equivocating inside the
// abandoned view, a quorum can hold two prepared proofs for the same
// (seq, view) with different digests. The strict View tie-break then
// keeps whichever proof iteration saw first, so before the replica-order
// fix the re-proposal set — and therefore the history the new view
// installs — depended on Go's randomized map order (the view changes of
// one view were a map by replica then; they are kept sorted by replica
// now, and the order they arrive in must not matter).
func TestComputeNewViewSetsDeterministicUnderEquivocation(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	r := tb.replicas[0]

	const (
		seq     = uint64(5)
		digestA = uint64(0xAAAA) // prepared at replica 1
		digestB = uint64(0xBBBB) // prepared at replica 2, same seq and view
	)
	build := func(round int) []*ViewChange {
		mkVC := func(rep int, digest uint64) *ViewChange {
			return &ViewChange{
				NewView: 1,
				Replica: rep,
				Prepared: []PreparedProof{{
					PrePrepare: &PrePrepare{View: 0, SeqNo: seq, Digest: digest,
						Batch: []*Request{NullRequest()}},
				}},
			}
		}
		vcs := []*ViewChange{{NewView: 1, Replica: 0}, mkVC(1, digestA), mkVC(2, digestB)}
		r.viewChanges = nil
		for i := range vcs {
			r.recordViewChange(vcs[(i+round)%len(vcs)])
		}
		return r.viewChangesFor(1)
	}

	minS, first := r.computeNewViewSets(build(0))
	if minS != 0 {
		t.Fatalf("minS = %d, want 0", minS)
	}
	if len(first) != int(seq) {
		t.Fatalf("re-proposal set has %d entries, want %d (gaps null-filled up to seq %d)", len(first), seq, seq)
	}
	// The deterministic tie-break keeps the proof from the lowest replica
	// id: replica 1's digest, regardless of map layout.
	if got := first[seq-1].Digest; got != digestA {
		t.Fatalf("equivocation tie-break chose digest %#x, want replica 1's %#x", got, digestA)
	}

	// Rebuild the set each round, adding the quorum's view changes in
	// another order; the output must not move.
	for round := 0; round < 64; round++ {
		_, out := r.computeNewViewSets(build(round))
		if len(out) != len(first) {
			t.Fatalf("round %d: re-proposal count %d != %d", round, len(out), len(first))
		}
		for i := range out {
			if out[i].SeqNo != first[i].SeqNo || out[i].Digest != first[i].Digest {
				t.Fatalf("round %d: re-proposal %d = (seq %d, digest %#x), first run had (seq %d, digest %#x)",
					round, i, out[i].SeqNo, out[i].Digest, first[i].SeqNo, first[i].Digest)
			}
		}
	}
}
