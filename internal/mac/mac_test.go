package mac

import (
	"testing"
	"testing/quick"
)

func TestSumVerifyRoundTrip(t *testing.T) {
	if err := quick.Check(func(key, digest uint64) bool {
		return Verify(Key(key), digest, Sum(Key(key), digest))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCorruptNeverVerifies(t *testing.T) {
	if err := quick.Check(func(key, digest uint64) bool {
		return !Verify(Key(key), digest, Corrupt(Sum(Key(key), digest)))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	tag := Sum(Key(1), 42)
	if Verify(Key(2), 42, tag) {
		t.Error("tag verified under the wrong key")
	}
}

func TestWrongDigestFails(t *testing.T) {
	tag := Sum(Key(1), 42)
	if Verify(Key(1), 43, tag) {
		t.Error("tag verified for the wrong digest")
	}
}

func TestAuthenticatorPerReceiverEntries(t *testing.T) {
	keys := []Key{10, 20, 30, 40}
	a := NewAuthenticator(keys, 7)
	if len(a) != 4 {
		t.Fatalf("len(authenticator) = %d, want 4", len(a))
	}
	for i, k := range keys {
		if !a.VerifyEntry(i, k, 7) {
			t.Errorf("entry %d did not verify under its own key", i)
		}
	}
	// The Big MAC asymmetry: each entry verifies only for its receiver.
	if a.VerifyEntry(0, keys[1], 7) {
		t.Error("entry 0 verified under replica 1's key")
	}
}

func TestAuthenticatorPartialCorruption(t *testing.T) {
	// Corrupting a subset of entries leaves the others valid — the exact
	// property the Big MAC attack exploits (valid for the primary, broken
	// for the rest).
	keys := []Key{10, 20, 30, 40}
	a := NewAuthenticator(keys, 7).Clone()
	for i := 1; i < 4; i++ {
		a[i] = Corrupt(a[i])
	}
	if !a.VerifyEntry(0, keys[0], 7) {
		t.Error("uncorrupted primary entry no longer verifies")
	}
	for i := 1; i < 4; i++ {
		if a.VerifyEntry(i, keys[i], 7) {
			t.Errorf("corrupted entry %d still verifies", i)
		}
	}
}

func TestVerifyEntryOutOfRange(t *testing.T) {
	a := NewAuthenticator([]Key{1}, 7)
	if a.VerifyEntry(-1, 1, 7) || a.VerifyEntry(1, 1, 7) {
		t.Error("out-of-range entry verified")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := NewAuthenticator([]Key{1, 2}, 7)
	c := a.Clone()
	c[0] = Corrupt(c[0])
	if a[0] == c[0] {
		t.Error("Clone shares storage with the original")
	}
}

func TestKeyringSymmetric(t *testing.T) {
	kr := NewKeyring(99)
	if kr.Pairwise(3, 7) != kr.Pairwise(7, 3) {
		t.Error("pairwise keys are not symmetric")
	}
}

func TestKeyringDistinctPairs(t *testing.T) {
	kr := NewKeyring(99)
	seen := make(map[Key][2]int)
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			k := kr.Pairwise(a, b)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision between pair (%d,%d) and %v", a, b, prev)
			}
			seen[k] = [2]int{a, b}
		}
	}
}

func TestKeyringSeedSeparation(t *testing.T) {
	if NewKeyring(1).Pairwise(0, 1) == NewKeyring(2).Pairwise(0, 1) {
		t.Error("different seeds produced the same pairwise key")
	}
}

// tagVerdict is the tag arithmetic an Auth stands for: sender computes n
// entries over digest, the entries in corrupt are corrupted, and receiver
// verifies its entry as coming from claimed over digest, flipped in bit 0
// when changed (a corrupter's copy, pbft.Corrupt).
func tagVerdict(kr *Keyring, sender, claimed, receiver, n int, corrupt, digest uint64, changed bool) bool {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = kr.Pairwise(sender, i)
	}
	a := NewAuthenticator(keys, digest)
	for i := range a {
		if corrupt&(1<<uint(i)) != 0 {
			a[i] = Corrupt(a[i])
		}
	}
	if changed {
		digest ^= 1
	}
	return a.VerifyEntry(receiver, kr.Pairwise(claimed, receiver), digest)
}

// authVerdict is the same authenticator as an Auth.
func authVerdict(sender, claimed, receiver, n int, corrupt uint64, changed bool) bool {
	a := Sign(sender, n)
	for i := 0; i < n; i++ {
		if corrupt&(1<<uint(i)) != 0 {
			a = a.Corrupt(i)
		}
	}
	if changed {
		a = a.Garble()
	}
	return a.Verifies(receiver, claimed)
}

// FuzzVerdictMatchesTags: an Auth's verdict equals the tag arithmetic's for
// every sender, claimed sender, receiver entry (in range or not), entry
// count, corruption mask and covered-digest change.
func FuzzVerdictMatchesTags(f *testing.F) {
	// The Big MAC mask: entries 1-3 of N = 4 corrupt, the primary's clean.
	for r := 0; r < 4; r++ {
		f.Add(uint16(9), uint16(9), int8(r), uint8(4), uint64(0xEEE), uint64(42), false)
	}
	f.Add(uint16(9), uint16(9), int8(4), uint8(4), uint64(0), uint64(42), false)  // out-of-range entry
	f.Add(uint16(9), uint16(9), int8(-1), uint8(4), uint64(0), uint64(42), false) // negative entry
	f.Add(uint16(9), uint16(8), int8(0), uint8(4), uint64(0), uint64(42), false)  // wrong sender
	f.Add(uint16(2), uint16(2), int8(2), uint8(4), uint64(0), uint64(42), false)  // a replica's own entry
	f.Add(uint16(1), uint16(1), int8(0), uint8(4), uint64(0), uint64(42), true)   // corrupter's copy
	f.Add(uint16(0), uint16(0), int8(0), uint8(0), uint64(0), uint64(0), false)   // the zero value
	f.Add(uint16(70), uint16(70), int8(63), uint8(64), uint64(1<<62), uint64(7), false)
	kr := NewKeyring(5)
	f.Fuzz(func(t *testing.T, sender, claimed uint16, receiver int8, n uint8, corrupt, digest uint64, changed bool) {
		entries := int(n % 65)
		want := tagVerdict(kr, int(sender), int(claimed), int(receiver), entries, corrupt, digest, changed)
		if got := authVerdict(int(sender), int(claimed), int(receiver), entries, corrupt, changed); got != want {
			t.Fatalf("sender %d, claimed %d, entry %d of %d, corrupt %#x, changed %v: Auth says %v, tags say %v",
				sender, claimed, receiver, entries, corrupt, changed, got, want)
		}
	})
}

// TestZeroAuthVerifiesNothing: the zero value — an unsigned message —
// verifies no entry for any sender, sender 0 included (its from field).
func TestZeroAuthVerifiesNothing(t *testing.T) {
	var a Auth
	for i := -1; i < 65; i++ {
		for from := 0; from < 8; from++ {
			if a.Verifies(i, from) || a.Garble().Verifies(i, from) {
				t.Fatalf("the zero Auth verified entry %d from sender %d", i, from)
			}
		}
	}
}
