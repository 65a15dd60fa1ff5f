package slab

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
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

// TestSlabRewindReusesMemory: objects carved before the mark survive a
// rewind untouched, and the first object carved after it lands on the
// memory the rewound one had.
func TestSlabRewindReusesMemory(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	kept := s.Get()
	*kept = obj{a: 1, b: 2}
	a.Capture()
	first := s.Get()
	*first = obj{a: 3}
	for i := 0; i < 3*s.chunkLen; i++ {
		*s.Get() = obj{a: uint64(i)}
	}
	if a.Held() <= a.Owned() {
		t.Fatalf("window did not lease: held %d, owned %d", a.Held(), a.Owned())
	}
	a.Rewind()
	if *kept != (obj{a: 1, b: 2}) {
		t.Fatalf("object below the mark changed: %+v", *kept)
	}
	if again := s.Get(); again != first {
		t.Fatalf("first object after the rewind is at %p, want the rewound slot %p", again, first)
	}
}

// TestPoolLeaseAccounting: chunks above the mark are on lease until the
// rewind, the captured prefix is adopted, and a second arena carves its
// window out of the chunks the first one returned.
func TestPoolLeaseAccounting(t *testing.T) {
	var p Pool
	a := NewArena(&p, nil)
	s := New[obj](a)
	for i := 0; i < 2*s.chunkLen+1; i++ {
		s.Get()
	}
	if got := p.Leased(); got != 3 {
		t.Fatalf("leased %d chunks during warm-up, want 3", got)
	}
	a.Capture()
	if got := p.Leased(); got != 0 {
		t.Fatalf("leased %d chunks after capture, want 0 (prefix adopted)", got)
	}
	if a.Held() != 1 || a.Owned() != 1 {
		t.Fatalf("capture keeps held=%d owned=%d chunks, want the one still being carved", a.Held(), a.Owned())
	}
	for i := 0; i < 4*s.chunkLen; i++ {
		s.Get()
	}
	if got := p.Leased(); got != 4 {
		t.Fatalf("leased %d chunks in the window, want 4", got)
	}
	window := s.chunks[len(s.chunks)-1]
	a.Rewind()
	if got := p.Leased(); got != 0 {
		t.Fatalf("leased %d chunks after rewind, want 0", got)
	}
	if a.Held() != a.Owned() {
		t.Fatalf("parked arena holds %d chunks, owns %d", a.Held(), a.Owned())
	}

	b := NewArena(&p, nil)
	sb := New[obj](b)
	sb.Get()
	if unsafe.SliceData(sb.cur) != unsafe.SliceData(window) {
		t.Fatal("second arena did not reuse the chunk the first one returned last")
	}
	// A cold run never captures: its rewind returns everything.
	b.Rewind()
	if p.Leased() != 0 || b.Held() != 0 {
		t.Fatalf("uncaptured rewind left leased=%d held=%d", p.Leased(), b.Held())
	}
}

// TestSpanWindows: windows are exactly n long, never straddle chunks and
// do not overlap.
func TestSpanWindows(t *testing.T) {
	a := NewArena(nil, nil)
	s := NewSpan[uint64](a)
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

// TestFreeListEmptiedByRewindAndCapture: the objects on the free list sit
// in chunks that a Rewind returns to the pool and a Capture forgets, so
// both empty it — the next Get carves, it does not hand out memory that
// now belongs to someone else — and a Capture also drops every pointer the
// list ever held, or those would keep the forgotten chunks alive.
func TestFreeListEmptiedByRewindAndCapture(t *testing.T) {
	a := NewArena(nil, nil)
	s := New[obj](a)
	below := s.Get()
	a.Capture()
	first := s.Get()
	s.Put(s.Get())
	s.Put(first)
	a.Rewind()
	if len(s.freed) != 0 {
		t.Fatalf("free list holds %d objects after a rewind", len(s.freed))
	}
	if got := s.Get(); got != first {
		t.Fatalf("first Get after the rewind is %p, want the rewound slot %p", got, first)
	}

	s.Put(s.Get())
	s.Put(s.Get())
	s.Get() // popped: its pointer is still in the list's backing array
	a.Capture()
	if len(s.freed) != 0 {
		t.Fatalf("free list holds %d objects after a capture", len(s.freed))
	}
	for i, p := range s.freed[:cap(s.freed)] {
		if p != nil {
			t.Fatalf("capture left pointer %d of the free list's backing array set", i)
		}
	}
	if got := s.Get(); got == below || got == first {
		t.Fatal("Get after a capture handed out an object from below the mark")
	}
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
	if p.Leased() != 0 || a.Held() != a.Owned() {
		t.Fatalf("append trail survived the rewind: leased=%d held=%d owned=%d", p.Leased(), a.Held(), a.Owned())
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
	if l := listFor[int](&p, scratchKey[int]{}); len(l.chunks) != 1 {
		t.Fatalf("stock holds %d buffers with one ever out, want 1", len(l.chunks))
	}
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

// TestCaptureCollectsForgottenWarmup: captures account the warm-up bytes
// they forget against the pool, and the one that brings the account to
// collectEvery runs a collection and clears it — at a point that depends
// only on the work done, whichever arena of the pool gets there.
func TestCaptureCollectsForgottenWarmup(t *testing.T) {
	var p Pool
	warm := func(bytes int) { // forgets at least bytes: the chunk being carved stays
		a := NewArena(&p, nil)
		s := New[obj](a)
		for i := 0; i <= (bytes+chunkBytes)/int(unsafe.Sizeof(obj{})); i++ {
			s.Get()
		}
		a.Capture()
	}
	cycles := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumGC
	}
	warm(collectEvery / 2)
	if p.forgot < collectEvery/2 || p.forgot >= collectEvery {
		t.Fatalf("pool accounts %d forgotten bytes after half a quota of warm-up", p.forgot)
	}
	before := cycles()
	warm(collectEvery / 2)
	if p.forgot != 0 {
		t.Fatalf("pool still accounts %d forgotten bytes after a full quota", p.forgot)
	}
	if cycles() == before {
		t.Fatal("the capture that filled the quota did not collect")
	}
}
