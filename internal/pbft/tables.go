package pbft

import (
	"cmp"
	"slices"
)

// byClient keeps records keyed by request with one slot per client
// address, like the dense lastReply table: a closed-loop client has one
// request outstanding, so a second key for the same client is the rare
// case, and it goes in a list sorted by key. Records are visited in key
// order (next) without sorting anything.
type byClient[T any] struct {
	slots []keyed[T] // by client address
	more  []keyed[T] // keys whose client's slot is taken, sorted
	n     int        // records in slots and more
}

type keyed[T any] struct {
	key RequestKey
	ok  bool
	val T
}

// search returns where k is, or would be inserted, in more.
func (t *byClient[T]) search(k RequestKey) (int, bool) {
	return slices.BinarySearchFunc(t.more, k, func(e keyed[T], k RequestKey) int {
		return cmp.Or(cmp.Compare(e.key.Client, k.Client), cmp.Compare(e.key.Seq, k.Seq))
	})
}

// find returns k's record, nil when there is none.
func (t *byClient[T]) find(k RequestKey) *T {
	if uint(k.Client) < uint(len(t.slots)) {
		if s := &t.slots[k.Client]; s.ok && s.key == k {
			return &s.val
		}
	}
	if len(t.more) > 0 {
		if i, ok := t.search(k); ok {
			return &t.more[i].val
		}
	}
	return nil
}

// add returns k's record, adding a zero one when there is none.
func (t *byClient[T]) add(k RequestKey) *T {
	if v := t.find(k); v != nil {
		return v
	}
	t.n++
	for int(k.Client) >= len(t.slots) {
		t.slots = append(t.slots, keyed[T]{})
	}
	if s := &t.slots[k.Client]; !s.ok {
		*s = keyed[T]{key: k, ok: true}
		return &s.val
	}
	i, _ := t.search(k)
	t.more = slices.Insert(t.more, i, keyed[T]{key: k, ok: true})
	return &t.more[i].val
}

// del removes k's record, if any.
func (t *byClient[T]) del(k RequestKey) {
	if uint(k.Client) < uint(len(t.slots)) && t.slots[k.Client].ok && t.slots[k.Client].key == k {
		t.slots[k.Client] = keyed[T]{}
	} else if i, ok := t.search(k); ok {
		t.more = slices.Delete(t.more, i, i+1)
	} else {
		return
	}
	t.n--
}

// next returns the record with the smallest key above after (nil when
// there is none), so that
//
//	for k, v := t.next(RequestKey{}); v != nil; k, v = t.next(k)
//
// visits every record in key order, and the loop body may delete the
// record it is given. Client sequence numbers start at 1.
func (t *byClient[T]) next(after RequestKey) (RequestKey, *T) {
	if t.n == 0 {
		return RequestKey{}, nil
	}
	i, _ := t.search(RequestKey{Client: after.Client, Seq: after.Seq + 1})
	for c := after.Client; int(c) < len(t.slots); c++ {
		var best *keyed[T]
		if s := &t.slots[c]; s.ok && (c > after.Client || s.key.Seq > after.Seq) {
			best = s
		}
		if i < len(t.more) && t.more[i].key.Client == c && (best == nil || t.more[i].key.Seq < best.key.Seq) {
			best = &t.more[i]
		}
		if best != nil {
			return best.key, &best.val
		}
	}
	return RequestKey{}, nil
}

// reset empties the table, keeping its memory.
func (t *byClient[T]) reset() { *t = t.refill(byClient[T]{}) }

// clone copies the table into fresh memory (none when it is empty).
func (t byClient[T]) clone() byClient[T] {
	if t.n == 0 {
		return byClient[T]{}
	}
	return byClient[T]{slots: slices.Clone(t.slots), more: slices.Clone(t.more), n: t.n}
}

// refill copies src into t's memory and returns the copy.
func (t byClient[T]) refill(src byClient[T]) byClient[T] {
	return byClient[T]{slots: refill(t.slots, src.slots), more: refill(t.more, src.more), n: src.n}
}

// refill copies src into dst's memory, clearing what dst held past src's
// length so that it keeps no message alive, and returns the copy.
func refill[T any](dst, src []T) []T {
	if len(dst) > len(src) {
		clear(dst[len(src):])
	}
	return append(dst[:0], src...)
}

// shift drops the first k elements of s in place, clearing the vacated
// tail.
func shift[T any](s []T, k int) []T {
	n := copy(s, s[k:])
	clear(s[n:])
	return s[:n]
}
