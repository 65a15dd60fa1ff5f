package slab

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"
)

type obj struct {
	a, b uint64
	p    *uint64
}

func capacity[T any](b *bump[T]) int {
	n := 0
	for _, c := range b.chunks {
		n += cap(c)
	}
	return n
}

// TestSlabRewindReusesMemory: a warm-up object survives a rewind
// untouched, and the first object carved after it lands on the memory the
// rewound one had.
func TestSlabRewindReusesMemory(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	kept := s.Get()
	*kept = obj{a: 1, b: 2}
	a.Capture()
	first := s.Get()
	*first = obj{a: 3}
	for i := 0; i < s.chunkLen/2; i++ {
		*s.Get() = obj{a: uint64(i)}
	}
	if a.Held() != 1 {
		t.Fatalf("the window holds %d chunks, want 1", a.Held())
	}
	a.Rewind()
	if *kept != (obj{a: 1, b: 2}) {
		t.Fatalf("warm-up object changed: %+v", *kept)
	}
	if again := s.Get(); again != first {
		t.Fatalf("first object after the rewind is at %p, want the rewound slot %p", again, first)
	}
}

// TestPoolLeaseAccounting: the warm-up leases nothing, a window's chunks
// are on lease until the rewind returns every one, and a second arena
// carves its window out of the chunks the first one returned.
func TestPoolLeaseAccounting(t *testing.T) {
	var p Pool
	a := NewArena(&p, nil)
	s := New[obj](a)
	for i := 0; i < 2*s.chunkLen+1; i++ {
		s.Get()
	}
	if p.Leased() != 0 || a.Held() != 0 {
		t.Fatalf("the warm-up leased %d chunks and holds %d, want none", p.Leased(), a.Held())
	}
	a.Capture()
	for i := 0; i < 4*s.chunkLen; i++ {
		s.Get()
	}
	if got := p.Leased(); got != 4 {
		t.Fatalf("leased %d chunks in the window, want 4", got)
	}
	window := s.chunks[len(s.chunks)-1]
	a.Rewind()
	if p.Leased() != 0 || a.Held() != 0 {
		t.Fatalf("rewound arena left leased=%d held=%d", p.Leased(), a.Held())
	}

	b := NewArena(&p, nil)
	sb := New[obj](b)
	b.Capture()
	sb.Get()
	if unsafe.SliceData(sb.cur) != unsafe.SliceData(window) {
		t.Fatal("second arena did not reuse the chunk the first one returned last")
	}
	b.Rewind()
	if p.Leased() != 0 || b.Held() != 0 || p.HighWater() != 4 {
		t.Fatalf("after both rewinds leased=%d held=%d high-water=%d, want 0, 0, 4", p.Leased(), b.Held(), p.HighWater())
	}
}

// TestSpanWindows: windows are exactly n long, never straddle chunks and
// do not overlap.
func TestSpanWindows(t *testing.T) {
	a := NewArena(nil, nil)
	s := NewSpan[uint64](a)
	a.Capture()
	n := s.chunkLen/2 + 1 // two of these cannot share a chunk
	w1, w2 := s.Get(n), s.Get(n)
	if len(w1) != n || cap(w1) != n || len(w2) != n || cap(w2) != n {
		t.Fatalf("windows are %d/%d and %d/%d, want len == cap == %d", len(w1), cap(w1), len(w2), cap(w2), n)
	}
	for i := range w1 {
		w1[i], w2[i] = 1, 2
	}
	if w1[n-1] != 1 || w2[0] != 2 {
		t.Fatal("windows overlap")
	}
	if a.Held() != 2 {
		t.Fatalf("two half-chunk-plus-one windows hold %d chunks, want 2", a.Held())
	}
}

// TestSpanOversize is the regression test for the raft catch-up OOM: the
// old entrySlab sized a new chunk as 256*n for a variable n, so one
// 17,594-entry batch allocated 4.5 M entries. An oversize request gets a
// chunk of exactly its own size, and that chunk is not pooled.
func TestSpanOversize(t *testing.T) {
	var p Pool
	a := NewArena(&p, nil)
	s := NewSpan[obj](a)
	a.Capture()
	s.Get(4)
	before := capacity(&s.bump)
	const n = 20_000
	if w := s.Get(n); len(w) != n {
		t.Fatalf("oversize window has %d elements, want %d", len(w), n)
	}
	if grown := capacity(&s.bump) - before; grown >= 2*n {
		t.Fatalf("Get(%d) grew retained capacity by %d elements, want < %d", n, grown, 2*n)
	}
	s.Get(4)
	a.Rewind()
	for _, c := range s.free.chunks {
		if len(c) != s.chunkLen {
			t.Fatalf("pool stocks a %d-element chunk, want only %d-element ones", len(c), s.chunkLen)
		}
	}
	if len(s.free.chunks) != 2 {
		t.Fatalf("pool stocks %d chunks, want the 2 fixed-size ones", len(s.free.chunks))
	}
}

// TestWindowCeiling: crossing the ceiling calls stop once, latches
// Overflowed, still serves the allocation, and the next rewind re-arms.
// The warm-up's heap memory counts like window chunks.
func TestWindowCeiling(t *testing.T) {
	stops := 0
	a := NewArena(nil, func() { stops++ })
	s := NewSpan[uint64](a)
	const n = 4 << 20 // 32 MB a piece, never touched
	for i := 0; i < WindowCeiling/(8*n); i++ {
		s.Get(n)
	}
	if a.Overflowed() || stops != 0 {
		t.Fatalf("overflowed at exactly the ceiling (stops=%d)", stops)
	}
	if w := s.Get(n); len(w) != n {
		t.Fatal("the allocation that crosses the ceiling must still succeed")
	}
	s.Get(n)
	if !a.Overflowed() || stops != 1 {
		t.Fatalf("overflowed=%v stops=%d after crossing, want true and 1", a.Overflowed(), stops)
	}
	a.Rewind()
	if a.Overflowed() {
		t.Fatal("rewind did not clear the overflow latch")
	}
}

// TestPoison: with the test hook on, a chunk comes back from the pool
// filled with 0xA5.
func TestPoison(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var p Pool
	a := NewArena(&p, nil)
	s := New[obj](a)
	a.Capture()
	*s.Get() = obj{a: 7}
	a.Rewind()
	if got := s.Get(); got.a != 0xA5A5A5A5A5A5A5A5 || got.b != 0xA5A5A5A5A5A5A5A5 {
		t.Fatalf("reused object is %#x/%#x, want poison", got.a, got.b)
	}
}

// TestPoisonKeepsPointersWhole: with the test hook on, Put and Rewind
// overwrite objects whose pointer slots the collector may be scanning at
// that very moment. A pointer it reads half overwritten can point into the
// heap, which is fatal ("found bad pointer in Go heap"), so the fill goes a
// word at a time. The test churns pointer-holding objects beside a
// collector that never stops.
func TestPoisonKeepsPointersWhole(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	a := NewArena(nil, nil)
	s := New[obj](a)
	targets := make([]uint64, 64)
	a.Capture()
	for round := 0; round < 1000; round++ {
		for i := 0; i < s.chunkLen; i++ {
			o := s.Get()
			*o = obj{p: &targets[i%len(targets)]}
			if i%2 == 0 {
				s.Put(o)
			}
		}
		a.Rewind()
	}
	close(stop)
	wg.Wait()
}

// TestPutGetLIFO: Get drains what Put handed back, last in first out,
// before it carves anything new, and Put moves no chunk: Held and the
// pool's lease count are what they were.
func TestPutGetLIFO(t *testing.T) {
	var p Pool
	a := NewArena(&p, nil)
	s := New[obj](a)
	x, y, z := s.Get(), s.Get(), s.Get()
	held, leased := a.Held(), p.Leased()
	s.Put(x)
	s.Put(z)
	s.Put(y)
	if a.Held() != held || p.Leased() != leased {
		t.Fatalf("Put moved chunks: held %d leased %d, want %d and %d", a.Held(), p.Leased(), held, leased)
	}
	for i, want := range []*obj{y, z, x} {
		if got := s.Get(); got != want {
			t.Fatalf("Get %d after the puts returned %p, want %p", i, got, want)
		}
	}
	if fresh := s.Get(); fresh == x || fresh == y || fresh == z {
		t.Fatal("Get handed out a live object once the free list was empty")
	}
	if a.Held() != held || p.Leased() != leased {
		t.Fatalf("draining the free list moved chunks: held %d leased %d", a.Held(), p.Leased())
	}
}

// TestPutPoison: with the test hook on, Put fills the object it takes
// back, so a read through a pointer that outlived the release is garbage
// and a second release of it is caught.
func TestPutPoison(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	s := New[obj](NewArena(nil, nil))
	x, next := s.Get(), s.Get()
	*x, *next = obj{a: 7}, obj{a: 8}
	s.Put(x)
	if x.a != 0xA5A5A5A5A5A5A5A5 || x.b != 0xA5A5A5A5A5A5A5A5 {
		t.Fatalf("released object reads %#x/%#x, want poison", x.a, x.b)
	}
	if next.a != 8 {
		t.Fatalf("Put poisoned its neighbour: %#x", next.a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of the same object did not panic")
		}
	}()
	s.Put(x)
}

// TestFreeListEmptiedByRewindAndCapture: a Capture hands the warm-up's
// freed objects to the pool's stock of free objects, each zeroed, and
// clears the pointers popped off it: the capture may reference those
// objects. The next deployment's warm-up takes them before it allocates.
// A Rewind empties the list of window objects, whose chunks go back to the
// pool: it returns the list to the scratch stock cleared of every pointer
// it ever held, and leaves no window object in the stock of free ones.
func TestFreeListEmptiedByRewindAndCapture(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	emptied := func(by string) {
		t.Helper()
		if s.freed != nil || s.lent {
			t.Fatalf("the slab kept its free list (%d objects) after a %s", len(s.freed), by)
		}
		if n := a.Pool().Borrowed(); n != 0 {
			t.Fatalf("%d buffers borrowed after a %s, want the free list returned", n, by)
		}
	}
	// stocked checks the stock of free objects holds exactly want, and no
	// pointer past it.
	stocked := func(by string, want ...*obj) {
		t.Helper()
		stock := BorrowStock[*obj](a.Pool())
		defer ReturnStock(a.Pool(), stock)
		if len(stock) != len(want) {
			t.Fatalf("after a %s the pool stocks %d free objects, want %d", by, len(stock), len(want))
		}
		for i, p := range stock {
			if p != want[i] || *p != (obj{}) {
				t.Fatalf("after a %s stocked object %d is %p (%+v), want %p zeroed", by, i, p, *p, want[i])
			}
		}
		for i, p := range stock[len(stock):cap(stock)] {
			if p != nil {
				t.Fatalf("after a %s the stock's backing array keeps pointer %d set", by, len(stock)+i)
			}
		}
	}
	kept, freed, popped := s.Get(), s.Get(), s.Get()
	*kept, *freed, *popped = obj{a: 1}, obj{a: 2, p: new(uint64)}, obj{a: 3}
	s.Put(freed)
	s.Put(popped)
	if s.Get() != popped { // popped: its pointer is still in the list's backing array
		t.Fatal("the warm-up's Get did not take the object put back last")
	}
	a.Capture()
	emptied("capture")
	stocked("capture", freed)
	if *kept != (obj{a: 1}) || *popped != (obj{a: 3}) {
		t.Fatalf("the capture wrote objects it still references: %+v, %+v", *kept, *popped)
	}

	first := s.Get()
	if first == freed || a.Held() != 1 {
		t.Fatalf("the first Get after the capture did not carve (held %d)", a.Held())
	}
	s.Put(s.Get())
	s.Put(first)
	s.Get()
	a.Rewind()
	emptied("rewind")
	scratch := Borrow[*obj](a.Pool())
	if cap(scratch) == 0 {
		t.Fatal("the rewind stocked no free list")
	}
	for i, p := range scratch[:cap(scratch)] {
		if p != nil {
			t.Fatalf("the rewind left pointer %d of the free list's backing array set", i)
		}
	}
	Return(a.Pool(), scratch)
	stocked("rewind", freed)
	if got := s.Get(); got != first {
		t.Fatalf("first Get after the rewind is %p, want the rewound slot %p", got, first)
	}

	next := New[obj](NewArena(a.Pool(), nil))
	if got := next.Get(); got != freed {
		t.Fatalf("the next deployment's warm-up got %p, want the stocked object %p", got, freed)
	}
	if fresh := next.Get(); fresh == freed || fresh == kept || fresh == popped {
		t.Fatalf("the next deployment's warm-up got %p again", fresh)
	}
	runtime.KeepAlive(kept)
}

// TestCaptureRefusesWindowChunks: a capture while the slabs hold chunks
// would let the snapshot reference memory the next rewind hands out
// again, so it panics; right after a rewind it is allowed.
func TestCaptureRefusesWindowChunks(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	a.Capture()
	s.Get()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a capture with a window chunk outstanding did not panic")
			}
		}()
		a.Capture()
	}()
	a.Rewind()
	a.Capture()
}

// TestWarmupGarbageCollected: the warm-up hands out heap objects, so once
// the capture is taken the collector keeps exactly those something still
// references — a parked master holds no chunk because one of its objects
// is alive.
func TestWarmupGarbageCollected(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	kept, dropped := s.Get(), s.Get()
	*kept, *dropped = obj{a: 1}, obj{a: 2}
	wkept, wdropped := weak.Make(kept), weak.Make(dropped)
	dropped = nil
	a.Capture()
	runtime.GC()
	if wdropped.Value() != nil {
		t.Error("a warm-up object nothing references survived the capture and a collection")
	}
	if wkept.Value() != kept || kept.a != 1 {
		t.Error("the referenced warm-up object did not survive")
	}
	runtime.KeepAlive(s)
}

// TestRewindDropsWindowPointers: a heap object that only a window's
// objects point at is garbage once the window is rewound, wherever those
// objects sat: in a full pooled chunk, in the chunk being carved, or in an
// oversize chunk.
func TestRewindDropsWindowPointers(t *testing.T) {
	type ref struct{ p *[8]uint64 }
	var p Pool
	a := NewArena(&p, nil)
	s, span := New[ref](a), NewSpan[ref](a)
	a.Capture()
	where := []string{"a full pooled chunk", "the chunk being carved", "an oversize chunk"}
	var targets []weak.Pointer[[8]uint64]
	point := func(o *ref) {
		o.p = new([8]uint64)
		targets = append(targets, weak.Make(o.p))
	}
	point(s.Get())
	for range s.chunkLen {
		s.Get().p = nil
	}
	point(s.Get())
	point(&span.Get(2 * span.chunkLen)[0])
	if p.Leased() != 3 {
		t.Fatalf("the window leased %d chunks, want two pooled and an oversize one", p.Leased())
	}
	a.Rewind()
	runtime.GC()
	for i, w := range targets {
		if w.Value() != nil {
			t.Errorf("an object pointed at from %s survived the rewind", where[i])
		}
	}
	runtime.KeepAlive(a) // and through it the slabs and the pool
}

// TestSpanAppend: a buffer grown through Append keeps its contents, and
// everything it left behind is rewound with the window.
func TestSpanAppend(t *testing.T) {
	var p Pool
	a := NewArena(&p, nil)
	s := NewSpan[uint64](a)
	a.Capture()
	var buf []uint64
	for i := 0; i < 3*s.chunkLen; i++ {
		buf = s.Append(buf, uint64(i))
	}
	for i, v := range buf {
		if v != uint64(i) {
			t.Fatalf("buf[%d] = %d after growth", i, v)
		}
	}
	a.Rewind()
	if p.Leased() != 0 || a.Held() != 0 {
		t.Fatalf("append trail survived the rewind: leased=%d held=%d", p.Leased(), a.Held())
	}
}

// TestScratchStockIsBounded: a Return with no matching Borrow (a buffer
// the owner grew itself) is dropped, so the stock holds as many buffers
// as were ever out at once, and a Borrow gets the last Return back.
func TestScratchStockIsBounded(t *testing.T) {
	var p Pool
	for i := 0; i < 10; i++ {
		Return(&p, make([]int, 0, 64)) // ten masters' warm-up buffers
	}
	if got := Borrow[int](&p); got != nil {
		t.Fatalf("unmatched Returns were stocked: Borrow gave cap %d", cap(got))
	}
	buf := make([]int, 5, 128)
	Return(&p, buf)
	got := Borrow[int](&p)
	if len(got) != 0 || cap(got) != 128 {
		t.Fatalf("Borrow gave len %d cap %d, want the returned buffer emptied (0, 128)", len(got), cap(got))
	}
	Return(&p, got)
	Return(&p, make([]int, 0, 64))
	l := listFor[int](&p, scratchKey[int]{})
	if len(l.chunks) != 1 {
		t.Fatalf("stock holds %d buffers with one ever out, want 1", len(l.chunks))
	}
	Borrow[int](&p)
	Return[int](&p, nil) // settles the Borrow, leaving its buffer to the collector
	Return(&p, make([]int, 0, 64))
	if len(l.chunks) != 0 {
		t.Fatalf("stock holds %d buffers after a nil Return settled the only Borrow, want 0", len(l.chunks))
	}
}

// TestReturnPoisonsStock: Borrowed counts the buffers out until a Return
// settles them, and under SetPoison a stocked buffer is poisoned over its
// whole capacity, so a borrower that reslices into it instead of
// appending reads garbage.
func TestReturnPoisonsStock(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var p Pool
	buf := append(Borrow[uint64](&p), 1, 2, 3)
	BorrowLargest[uint64](&p)
	if n := p.Borrowed(); n != 2 {
		t.Fatalf("Borrowed reports %d with two buffers out", n)
	}
	Return(&p, buf[:1])
	Return[uint64](&p, nil)
	if n := p.Borrowed(); n != 0 {
		t.Fatalf("Borrowed reports %d after both were returned", n)
	}
	got := Borrow[uint64](&p)
	if cap(got) == 0 {
		t.Fatal("the returned buffer was not stocked")
	}
	for i, v := range got[:cap(got)] {
		if v != 0xA5A5A5A5A5A5A5A5 {
			t.Fatalf("stocked buffer reads %#x at %d, want poison", v, i)
		}
	}
	Return(&p, got)
}

// TestBorrowLargest: BorrowLargest hands out the stocked buffer of the
// largest capacity, wherever it sits in the stock; Borrow still gets the
// last Return back.
func TestBorrowLargest(t *testing.T) {
	var p Pool
	for range 3 {
		Borrow[int](&p)
	}
	for _, c := range []int{16, 64, 32} {
		Return(&p, make([]int, 0, c))
	}
	if got := BorrowLargest[int](&p); cap(got) != 64 {
		t.Fatalf("BorrowLargest gave cap %d from a stock of 16, 64 and 32, want 64", cap(got))
	}
	if got := Borrow[int](&p); cap(got) != 32 && cap(got) != 16 {
		t.Fatalf("Borrow gave cap %d, want one of the two left", cap(got))
	}
	if got := BorrowLargest[int](&p); got == nil {
		t.Fatal("BorrowLargest found the stock empty with one buffer left")
	}
	if got := BorrowLargest[int](&p); got != nil {
		t.Fatalf("BorrowLargest gave cap %d from an empty stock, want nil", cap(got))
	}
}

// TestStockKeepsItsObjects: BorrowStock hands a stock back as ReturnStock
// left it, length and all, counts in Borrowed until it is returned, and
// under SetPoison only the capacity past its objects is poisoned; a stock
// of another type, or a Borrow of the same type, does not see it.
func TestStockKeepsItsObjects(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var p Pool
	if got := BorrowStock[*int](&p); got != nil {
		t.Fatalf("BorrowStock from an empty pool gave %d objects, want nil", len(got))
	}
	a, b := new(int), new(int)
	ReturnStock(&p, append(make([]*int, 0, 4), a, b))
	if n := p.Borrowed(); n != 0 {
		t.Fatalf("Borrowed reports %d after the stock was returned", n)
	}
	if got := Borrow[*int](&p); got != nil {
		t.Fatalf("Borrow took the stock: %d elements", cap(got))
	}
	Return[*int](&p, nil)
	got := BorrowStock[*int](&p)
	if p.Borrowed() != 1 || len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("BorrowStock gave %v (%d borrowed), want the two objects returned", got, p.Borrowed())
	}
	const poisoned = ^uintptr(0) / 0xff * 0xa5 // 0xA5 in every byte of a word
	for i, v := range got[2:cap(got)] {
		if uintptr(unsafe.Pointer(v)) != poisoned {
			t.Fatalf("spare capacity reads %p at %d, want poison", v, i)
		}
	}
	ReturnStock(&p, got[:0])
}

// TestConcurrentArenas: arenas on separate goroutines share one pool (run
// under -race); every arena sees only its own writes.
func TestConcurrentArenas(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			a := NewArena(&p, nil)
			s := New[obj](a)
			sp := NewSpan[uint64](a)
			a.Capture()
			for round := 0; round < 20; round++ {
				var objs []*obj
				for i := 0; i < 3*s.chunkLen; i++ {
					o := s.Get()
					*o = obj{a: id, b: uint64(i)}
					objs = append(objs, o)
					sp.Get(3)[0] = id
				}
				for i, o := range objs {
					if o.a != id || o.b != uint64(i) {
						t.Errorf("arena %d read %+v at %d", id, *o, i)
						return
					}
				}
				a.Rewind()
			}
		}(uint64(g))
	}
	wg.Wait()
	if p.Leased() != 0 {
		t.Fatalf("leased %d chunks after every arena rewound", p.Leased())
	}
}
