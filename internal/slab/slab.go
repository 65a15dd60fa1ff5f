// Package slab is the rewindable bump allocator behind snapshot/fork
// execution (DESIGN.md §20). Protocol objects that are built once and
// shared by pointer — requests, replies, votes, appends, request batches
// — are carved out of fixed-size chunks; everything a measurement window
// carves becomes unreachable the moment the deployment rolls back to its
// post-warm-up snapshot, so a rewind reuses the memory instead of handing
// it to the garbage collector. An object that several holders share — a
// message and the deliveries and log entries that keep it — carries a
// Holders count; the holder that drops the last count hands it back
// through Slab.Put, and it is the next one Get hands out.
//
// Only windows carve. Until its arena's first Capture a slab hands out
// heap objects, so a parked master keeps exactly what its snapshot
// references. The warm-up's freed objects are not left to the collector:
// the capture stocks them in the pool, and the next deployment's warm-up
// takes them before it allocates. From the capture on, a slab carves from
// chunks leased from a Pool shared by every deployment of a harness
// Runner, and Arena.Rewind hands all of them back, so all masters of a
// worker carve their windows out of the same, cache-warm memory.
//
// Objects are handed out dirty. Every call site fully initializes what it
// gets, which is also what makes the pool determinism-neutral: no object
// can observe which chunk backs it or who used that chunk before. What a
// rewind takes back points at nothing, though: the rewind zeroes every
// object the window carved, or those would keep what they pointed at — a
// Raft window's logs — alive for as long as the pool lives.
package slab

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// chunkBytes sizes every pooled chunk: large enough that the pool lock
// (taken once per chunk) is invisible next to the ~500 objects carved
// from it, small enough that the one chunk a window leases for each slab
// it carves from is noise against a deployment's other state.
const chunkBytes = 32 << 10

// WindowCeiling bounds the bytes one Arena may lease between two rewinds.
// Every message of a window is a fixed-size object — Raft's AppendEntries
// alias the leader's log instead of copying it, and a message goes back
// through Put when its last holder drops it — so a window leases what it
// holds at once: the largest measured are 2.8 MB on PBFT (250 clients)
// and 15 MB on Raft (480 chunks: a corrupt+dup ack storm's backlog of
// queued deliveries at the 2M-event step budget, before the Raft leader
// kept one batch in flight per follower; the table is §15 of
// `git show 8de37d4:DESIGN.md`).
// The ceiling is the backstop behind that budget: a deployment that leaks
// past it is stopped through the Arena's stop callback and costs one hung
// test, not the process.
const WindowCeiling = 128 << 20

// poison makes the pool overwrite every chunk it takes back (tests only,
// see SetPoison).
var poison atomic.Bool

// SetPoison is a test hook: while on, every chunk returned to any Pool,
// every object returned through Slab.Put and the whole capacity of every
// scratch buffer stocked by Return is filled with 0xA5 bytes, so an
// object that is read before its call site initialized it — or through a
// pointer that outlived its window or its release — shows up as garbage
// (or a fault) instead of as a plausible stale value.
func SetPoison(on bool) { poison.Store(on) }

// Pool is the shared stock of free chunks, one LIFO list per element
// type. It is safe for concurrent use; the zero value is ready.
type Pool struct {
	mu     sync.Mutex
	lists  map[any]any // chunkKey[T]{}, scratchKey[T]{} or stockKey[T]{} -> *freeList[T]
	leased int         // chunks out on lease (handed out, not yet returned)
	held   int         // chunks the pool is responsible for: leased plus free
	high   int         // the largest held has been
	out    int         // scratch buffers borrowed and not yet returned
}

// Leased reports how many chunks are currently out on lease: handed to a
// slab and not yet returned by a rewind.
func (p *Pool) Leased() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leased
}

// Borrowed reports how many scratch buffers are out: handed out by Borrow,
// BorrowLargest or BorrowStock and not yet settled by a Return or
// ReturnStock.
func (p *Pool) Borrowed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out
}

// HighWater reports the most chunks the pool has held at once, leased and
// free together: the pool's share of a process's peak memory.
func (p *Pool) HighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.high
}

// chunkKey, scratchKey and stockKey key a pool's three kinds of free list
// per element type: fixed-size chunks (bump.grow), scratch buffers
// (Borrow) and stocks of free objects (BorrowStock).
type (
	chunkKey[T any]   struct{}
	scratchKey[T any] struct{}
	stockKey[T any]   struct{}
)

type freeList[T any] struct {
	chunks [][]T
	out    int // scratch lists only: Borrows not yet matched by a Return
}

// listFor returns the pool's free list under key, creating it on first
// use.
func listFor[T any](p *Pool, key any) *freeList[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.lists[key]; ok {
		return l.(*freeList[T])
	}
	if p.lists == nil {
		p.lists = make(map[any]any)
	}
	l := &freeList[T]{}
	p.lists[key] = l
	return l
}

// Arena is one deployment's account with a Pool: the slabs created from
// it capture and rewind together, and the bytes they hand out between two
// rewinds, heap objects of the warm-up included, count against
// WindowCeiling. An Arena belongs to one simulation goroutine at a time.
type Arena struct {
	pool     *Pool
	stop     func()
	slabs    []rewinder
	captured bool // slabs carve from leased chunks, not the heap
	// epoch tells the objects a window carved from the warm-up's (see
	// Holders): it starts at 1, so a zero Holders never matches, and every
	// Capture moves it on.
	epoch uint16

	window   int // bytes handed out since the last Capture or Rewind
	overflow bool
}

type rewinder interface {
	rewind()
	held() int
}

// NewArena returns an arena leasing from pool; a nil pool gives the arena
// a private one (standalone replicas in unit tests). stop, when non-nil,
// is called once per window when the arena crosses WindowCeiling; the
// allocation that crossed it still succeeds, so stop only has to end the
// run at the next event boundary (sim.Engine.Stop).
func NewArena(pool *Pool, stop func()) *Arena {
	if pool == nil {
		pool = new(Pool)
	}
	return &Arena{pool: pool, stop: stop, epoch: 1}
}

// Capture ends the warm-up: from now on the slabs carve from leased
// chunks, all of which Rewind hands back. The warm-up's objects are heap
// objects, alive while the snapshot references them; those it put back
// go to the pool's stock of free objects of their type, for the next
// deployment's warm-up, and stay single heap objects, so a capture pins
// none of them. Capture also moves the epoch on (see Holders). A capture
// must come before any window or right after a Rewind: it panics while a
// slab holds chunks, whose objects the snapshot could reference and the
// next rewind would hand out again.
func (a *Arena) Capture() {
	if a.Held() > 0 {
		panic("slab: Capture with window chunks outstanding")
	}
	a.Rewind()
	a.captured = true
	a.epoch++
	if a.epoch == poisonEpoch {
		a.epoch++
	}
	if a.epoch == 0 {
		a.epoch = 1
	}
}

// Rewind hands every chunk the slabs carved from back to the pool and
// empties their free lists. Objects handed out before the first Capture
// are heap objects and stay as they are.
func (a *Arena) Rewind() {
	for _, s := range a.slabs {
		s.rewind()
	}
	a.window, a.overflow = 0, false
}

// Pool returns the pool the arena leases from.
func (a *Arena) Pool() *Pool { return a.pool }

// Overflowed reports whether the arena crossed WindowCeiling since the
// last Capture or Rewind.
func (a *Arena) Overflowed() bool { return a.overflow }

// Held reports how many chunks the arena's slabs hold right now: those
// the window leased, none once it is rewound.
func (a *Arena) Held() int {
	n := 0
	for _, s := range a.slabs {
		n += s.held()
	}
	return n
}

func (a *Arena) charge(bytes int) {
	a.window += bytes
	if a.window > WindowCeiling && !a.overflow {
		a.overflow = true
		if a.stop != nil {
			a.stop()
		}
	}
}

// bump is the chunk bookkeeping Slab and Span share. The chunk being
// carved is always the last one held.
type bump[T any] struct {
	arena    *Arena
	free     *freeList[T]
	chunkLen int
	chunks   [][]T
	cur      []T // chunks[len(chunks)-1], nil when empty
	off      int // next free slot in cur
}

func newBump[T any](a *Arena) bump[T] {
	var zero T
	n := 1
	if size := int(unsafe.Sizeof(zero)); size > 0 && chunkBytes/size > 1 {
		n = chunkBytes / size
	}
	return bump[T]{arena: a, free: listFor[T](a.pool, chunkKey[T]{}), chunkLen: n}
}

// warmup reports whether the arena is not yet captured, charging n
// elements to it when so: the caller then hands out heap memory.
func (b *bump[T]) warmup(n int) bool {
	if b.arena.captured {
		return false
	}
	var zero T
	b.arena.charge(n * int(unsafe.Sizeof(zero)))
	return true
}

// grow makes a fresh chunk of at least n elements current: a pooled
// chunk when n fits the fixed chunk length, otherwise a chunk of exactly
// n elements that is never pooled — so one oversize request cannot size
// the chunks every later lease pays for.
func (b *bump[T]) grow(n int) {
	var c []T
	p := b.arena.pool
	p.mu.Lock()
	p.leased++
	if k := len(b.free.chunks); n <= b.chunkLen && k > 0 {
		c = b.free.chunks[k-1]
		b.free.chunks[k-1] = nil
		b.free.chunks = b.free.chunks[:k-1]
	} else {
		p.held++
		p.high = max(p.high, p.held)
	}
	p.mu.Unlock()
	if c == nil {
		c = make([]T, max(n, b.chunkLen))
	}
	b.chunks = append(b.chunks, c)
	b.cur, b.off = c, 0
	var zero T
	b.arena.charge(len(c) * int(unsafe.Sizeof(zero)))
}

// rewind hands every chunk back to the pool (oversize chunks go to the
// garbage collector). The objects carved from them must be unreachable,
// or at least never read again. A chunk comes from the pool or from make
// zeroed (poisoned, under SetPoison) and is carved from its start, so
// zeroing what was carved keeps every pooled chunk free of pointers.
func (b *bump[T]) rewind() {
	if len(b.chunks) == 0 {
		return
	}
	fill := poison.Load()
	for i, c := range b.chunks {
		switch {
		case len(c) != b.chunkLen:
		case fill:
			poisonChunk(c)
		case i == len(b.chunks)-1:
			clear(c[:b.off])
		default:
			clear(c)
		}
	}
	p := b.arena.pool
	p.mu.Lock()
	p.leased -= len(b.chunks)
	for i, c := range b.chunks {
		if len(c) == b.chunkLen {
			b.free.chunks = append(b.free.chunks, c)
		} else {
			p.held--
		}
		b.chunks[i] = nil
	}
	p.mu.Unlock()
	b.chunks, b.cur, b.off = b.chunks[:0], nil, 0
}

func (b *bump[T]) held() int { return len(b.chunks) }

// poisonChunk fills c with 0xA5 bytes and reports whether it already was.
// A T with pointers is stored a word at a time: the collector may scan the
// memory meanwhile, and a pointer it reads half overwritten can point into
// the heap, where it is fatal; a whole 0xA5A5A5A5A5A5A5A5 points nowhere.
func poisonChunk[T any](c []T) (was bool) {
	const pattern = 0xA5A5A5A5A5A5A5A5
	var zero T
	size := len(c) * int(unsafe.Sizeof(zero))
	was = size > 0
	if unsafe.Alignof(zero) == 8 { // so size is a whole number of words
		words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(c))), size/8)
		for i := range words {
			was = was && words[i] == pattern
			words[i] = pattern
		}
		return was
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), size)
	for i := range raw {
		was = was && raw[i] == 0xA5
		raw[i] = 0xA5
	}
	return was
}

// Slab hands out single objects.
type Slab[T any] struct {
	bump[T]
	// freed holds the objects Put handed back, last in first out. In a
	// window it is a scratch buffer the first Put borrows from the pool,
	// and every Rewind returns it emptied, since a window's objects go
	// back with their chunks: a pointer left here would alias them. In the
	// warm-up it is the pool's stock of free heap objects of T, which New
	// borrows and the Capture returns with the warm-up's freed objects on
	// it, so the next deployment's warm-up takes them before it allocates
	// (see Capture). A parked deployment keeps no free list.
	freed []*T
	lent  bool // freed is borrowed: a stock before the capture, scratch after
}

// New creates a slab of T in the arena.
func New[T any](a *Arena) *Slab[T] {
	s := &Slab[T]{bump: newBump[T](a)}
	a.slabs = append(a.slabs, s)
	if !a.captured {
		s.borrowFree()
	}
	return s
}

// Get returns the next object, dirty: the caller must assign every field.
// Objects handed back through Put go out again first, and in the warm-up
// so do those an earlier deployment's warm-up put back.
func (s *Slab[T]) Get() *T {
	if k := len(s.freed); k > 0 {
		p := s.freed[k-1]
		s.freed = s.freed[:k-1]
		return p
	}
	if s.off == len(s.cur) {
		if s.warmup(1) {
			return new(T)
		}
		s.grow(1)
	}
	p := &s.cur[s.off]
	s.off++
	return p
}

// Put hands back an object Get returned since the arena's last Capture
// or Rewind. The caller must hold the only reference to it; under
// SetPoison an object put twice panics.
func (s *Slab[T]) Put(p *T) {
	if poison.Load() && poisonChunk(unsafe.Slice(p, 1)) {
		panic("slab: Put of an object that was already put back")
	}
	if !s.lent {
		s.borrowFree()
	}
	s.freed = append(s.freed, p)
}

// borrowFree borrows the free list: the pool's stock of T's heap objects
// during the warm-up, an empty scratch buffer in a window.
func (s *Slab[T]) borrowFree() {
	if s.arena.captured {
		s.freed = BorrowLargest[*T](s.arena.pool)
	} else {
		s.freed = BorrowStock[*T](s.arena.pool)
	}
	s.lent = true
}

// rewind is bump.rewind with the free list returned first. A window's
// list goes back cleared of every pointer it ever held, popped ones
// included: a pointer left in the backing array would keep a pooled chunk
// alive. The warm-up's goes back as a stock of the heap objects on it
// (the capture's rewind, Arena.Capture), each zeroed so that it pins
// nothing, or left poisoned under SetPoison; the pointers popped off it
// are cleared, since the capture may reference those objects only for a
// while.
func (s *Slab[T]) rewind() {
	if s.lent {
		pool := s.arena.pool
		if s.arena.captured {
			clear(s.freed[:cap(s.freed)])
			Return(pool, s.freed)
		} else {
			if !poison.Load() {
				var zero T
				for _, p := range s.freed {
					*p = zero
				}
			}
			clear(s.freed[len(s.freed):cap(s.freed)])
			ReturnStock(pool, s.freed)
		}
		s.freed, s.lent = nil, false
	}
	s.bump.rewind()
}

// Holders is the holder count of an object several holders share: the
// deliveries in flight that carry it and whatever the protocol keeps it in
// (DESIGN.md §20). Share starts it, Hold and Drop move it, and the holder
// whose Drop reports the last one puts the object back.
//
// An object whose count was not started in the arena's current epoch is
// never counted: Hold and Drop leave it alone. That covers the zero value
// (an object built outside the arena) and every object handed out before
// the last Capture, which the snapshot references and every fork reads
// again — a window may neither release one nor write its count, or the
// next fork would start from different memory than the cold run.
//
// It is four bytes, so that it fits the padding of most messages: a
// window of a duplicated-ack storm held hundreds of thousands of them.
// The epoch wraps after 65,534 captures of one arena, which would count an
// object from that long ago again; a deployment captures once.
type Holders struct {
	n     uint16
	epoch uint16
}

// poisonEpoch is what Holders.epoch reads after SetPoison filled it; no
// arena's epoch takes that value.
const poisonEpoch = 0xA5A5

// Share starts the count of an object just carved from one of a's slabs
// at n holders. Objects are handed out dirty: a call site that fills one
// field by field calls Share like every other.
func (a *Arena) Share(h *Holders, n int) { h.n, h.epoch = uint16(n), a.epoch }

// Hold adds a holder.
func (a *Arena) Hold(h *Holders) {
	if !a.counts(h) {
		return
	}
	if h.n == math.MaxUint16 {
		panic("slab: holder count overflow")
	}
	h.n++
}

// Drop removes a holder and reports whether it was the last: the caller
// then puts the object back, and holds no pointer to it afterwards.
func (a *Arena) Drop(h *Holders) bool {
	if !a.counts(h) {
		return false
	}
	if h.n == 0 {
		panic("slab: Drop of an object nobody holds")
	}
	h.n--
	return h.n == 0
}

// Sole reports whether the caller's is the only hold on a counted object:
// nothing else reads it, so the caller may change it in place.
func (a *Arena) Sole(h *Holders) bool { return a.counts(h) && h.n == 1 }

// counts reports whether h was started in the current epoch. Under
// SetPoison a count read from an object that was put back panics.
func (a *Arena) counts(h *Holders) bool {
	if h.epoch == a.epoch {
		return true
	}
	if h.epoch == poisonEpoch && poison.Load() {
		panic("slab: holder count of an object that was already put back")
	}
	return false
}

// Span hands out windows of n contiguous elements (request batches).
type Span[T any] struct{ bump[T] }

// NewSpan creates a span allocator of T in the arena.
func NewSpan[T any](a *Arena) *Span[T] {
	s := &Span[T]{bump: newBump[T](a)}
	a.slabs = append(a.slabs, s)
	return s
}

// Get returns a dirty window of exactly n elements (len == cap == n). A
// window never straddles chunks: when n does not fit the rest of the
// current chunk the rest is skipped, and n beyond the fixed chunk length
// gets a chunk of its own.
func (s *Span[T]) Get(n int) []T {
	if s.off+n > len(s.cur) {
		if s.warmup(n) {
			return make([]T, n)
		}
		s.grow(n)
	}
	w := s.cur[s.off : s.off+n : s.off+n]
	s.off += n
	return w
}

// Append is append(buf, v) for a buffer that lives in the span: a full
// buffer moves to a fresh window of twice its length plus a quarter
// chunk, so a buffer that grows all window long leaves no heap garbage
// and the next rewind takes all of it back. After a rewind the owner must
// point the buffer back at the backing array it had at capture time.
func (s *Span[T]) Append(buf []T, v T) []T {
	if len(buf) == cap(buf) {
		grown := s.Get(2*len(buf) + s.chunkLen/4)[:len(buf)]
		copy(grown, buf)
		buf = grown
	}
	return append(buf, v)
}

// Borrow hands out an empty scratch buffer of T with whatever capacity an
// earlier Return left behind (none at first: the borrower grows it), for
// per-run state that has to be contiguous and is rebuilt or dead by the
// next run: latency samples, oracle tables, replicated logs. One set of
// buffers per concurrent run ends up serving every deployment of the
// Runner.
func Borrow[T any](p *Pool) []T { return borrow[T](p, scratchKey[T]{}, false)[:0] }

// BorrowLargest is Borrow handing out the stocked buffer of the largest
// capacity instead of the last one returned, for a borrower whose buffers
// grow all run long: a smaller one would be regrown, and its outgrown
// arrays left to the collector. Raft logs borrow this way; the stocks
// other borrowers keep stay last-in first-out.
func BorrowLargest[T any](p *Pool) []T { return borrow[T](p, scratchKey[T]{}, true)[:0] }

// BorrowStock is Borrow for a stock of free objects: the buffer comes back
// as the last ReturnStock left it, length and all, and its borrower pops
// objects off the end and pushes them back (the engine's delivery trains,
// sim.Engine.Park). Every concurrent run holds one stock, so the objects
// go from deployment to deployment instead of staying with the one that
// grew them; nil when none is stocked.
func BorrowStock[T any](p *Pool) []T { return borrow[T](p, stockKey[T]{}, false) }

func borrow[T any](p *Pool, key any, largest bool) []T {
	l := listFor[T](p, key)
	p.mu.Lock()
	defer p.mu.Unlock()
	l.out++
	p.out++
	k := len(l.chunks) - 1
	if k < 0 {
		return nil
	}
	if largest {
		for i, c := range l.chunks[:k] {
			if cap(c) > cap(l.chunks[k]) {
				l.chunks[i], l.chunks[k] = l.chunks[k], c
			}
		}
	}
	buf := l.chunks[k]
	l.chunks[k] = nil
	l.chunks = l.chunks[:k]
	return buf
}

// Return stocks a scratch buffer for the next Borrow. A Return that
// matches no Borrow — a buffer its owner grew itself during warm-up — is
// dropped, so the stock never exceeds the buffers out at one time. A nil
// buf settles a Borrow and stocks nothing: the borrowed buffer is left to
// the collector. The owner clears a buffer of pointers before it returns
// it; under SetPoison its whole capacity is poisoned, so a borrower that
// reslices into the capacity instead of appending reads garbage.
func Return[T any](p *Pool, buf []T) { settle(p, scratchKey[T]{}, buf, buf[:cap(buf)]) }

// ReturnStock settles a BorrowStock, stocking the objects in stock[:len]
// for the next one; under SetPoison only the capacity past them is
// poisoned.
func ReturnStock[T any](p *Pool, stock []T) {
	settle(p, stockKey[T]{}, stock, stock[len(stock):cap(stock)])
}

func settle[T any](p *Pool, key any, buf, dead []T) {
	l := listFor[T](p, key)
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.out == 0 {
		return
	}
	l.out--
	p.out--
	if cap(buf) > 0 {
		if poison.Load() {
			poisonChunk(dead)
		}
		l.chunks = append(l.chunks, buf)
	}
}
