package pbft

import (
	"slices"
	"testing"

	"avd/internal/simnet"
)

// TestByClientKeyOrder: records visit in (client, seq) order whichever
// of them holds its client's slot, a record the loop deletes is not
// visited again, and a clone refilled into another table's memory keeps
// every record.
func TestByClientKeyOrder(t *testing.T) {
	key := func(c, s int) RequestKey { return RequestKey{Client: simnet.Addr(c), Seq: uint64(s)} }
	var tab byClient[int]
	for i, k := range []RequestKey{key(7, 3), key(5, 9), key(7, 1), key(5, 2), key(9, 4), key(7, 2)} {
		*tab.add(k) = i
	}
	if *tab.add(key(7, 1)) != 2 || tab.n != 6 {
		t.Fatalf("re-adding a key made a new record: %d records", tab.n)
	}
	tab.del(key(7, 3)) // the slot's holder goes; 7/1 and 7/2 stay in the list
	want := []RequestKey{key(5, 2), key(5, 9), key(7, 1), key(7, 2), key(9, 4)}
	keys := func(tab *byClient[int]) []RequestKey {
		var got []RequestKey
		for k, v := tab.next(RequestKey{}); v != nil; k, v = tab.next(k) {
			got = append(got, k)
		}
		return got
	}
	if got := keys(&tab); !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}

	snap := tab.clone()
	for k, v := tab.next(RequestKey{}); v != nil; k, v = tab.next(k) {
		tab.del(k)
	}
	if tab.n != 0 || tab.find(key(5, 2)) != nil {
		t.Fatalf("%d records left after deleting each one visited", tab.n)
	}
	tab = tab.refill(snap)
	if got := keys(&tab); !slices.Equal(got, want) || *tab.find(key(9, 4)) != 4 {
		t.Fatalf("refilled order %v, want %v", got, want)
	}
}
