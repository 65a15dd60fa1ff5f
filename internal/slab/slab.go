// Package slab is the rewindable bump allocator behind snapshot/fork
// execution (DESIGN.md §15). Protocol objects that are built once and
// shared by pointer — requests, replies, votes, appends, request batches
// — are carved out of fixed-size chunks; everything a measurement window
// carves becomes unreachable the moment the deployment rolls back to its
// post-warm-up snapshot, so a rewind reuses the memory instead of handing
// it to the garbage collector. An object that several holders share — a
// message and the deliveries and log entries that keep it — carries a
// Holders count; the holder that drops the last count hands it back
// through Slab.Put, and it is the next one Get hands out.
//
// Ownership is split at the capture mark. Chunks a deployment filled
// before Arena.Capture hold objects its snapshot may still point to: they
// leave the pool for good, and the slab forgets all but the one it is
// still carving, so the garbage collector keeps exactly those whose
// objects the snapshot references. Chunks above the mark are leased from
// a Pool shared by every deployment of a harness Runner and go back to it
// on Arena.Rewind, so a parked master retains only the live part of its
// warm-up and all masters of a worker carve their windows out of the
// same, cache-warm memory.
//
// Objects are handed out dirty. Every call site fully initializes what it
// gets, which is also what makes the pool determinism-neutral: no object
// can observe which chunk backs it or who used that chunk before. What a
// rewind takes back points at nothing, though: the rewind zeroes every
// object carved after the mark, in the chunks it returns and in the tail
// of the chunk it keeps, or a window's objects would keep what they
// pointed at — a Raft window's logs — alive for as long as the pool or the
// parked master lives.
package slab

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// chunkBytes sizes every pooled chunk: large enough that the pool lock
// (taken once per chunk) is invisible next to the ~500 objects carved
// from it, small enough that the partly filled chunk each slab keeps
// below its capture mark is noise against a master's other state.
const chunkBytes = 32 << 10

// WindowCeiling bounds the bytes one Arena may lease between two rewinds.
// Every message of a window is a fixed-size object — Raft's AppendEntries
// alias the leader's log instead of copying it, and a message goes back
// through Put when its last holder drops it — so a window leases what it
// holds at once: the largest measured are 2.8 MB on PBFT (250 clients)
// and 15 MB on Raft (480 chunks: a corrupt+dup ack storm's backlog of
// queued deliveries at the 2M-event step budget, pinned by raftsim's
// TestFaultStormWindowLease; DESIGN.md §15 has the table).
// The ceiling is the backstop behind that budget: a deployment that leaks
// past it is stopped through the Arena's stop callback and costs one hung
// test, not the process.
const WindowCeiling = 128 << 20

// collectEvery is how many bytes of warm-up chunks a pool's arenas may
// forget (Arena.Capture) before the pool runs a garbage collection. Those
// chunks are over half of what a campaign allocates, and its steady state
// allocates next to nothing, so the collector's last cycle falls inside
// the phase that builds the masters — where exactly is thread timing, and
// it decided how much dead warm-up memory the process kept to its end
// (163-192 MB peaks for one campaign). Collecting at points that depend
// only on the work done pins the heap's high-water mark (DESIGN.md §15).
const collectEvery = 32 << 20

// poison makes the pool overwrite every chunk it takes back (tests only,
// see SetPoison).
var poison atomic.Bool

// SetPoison is a test hook: while on, every chunk returned to any Pool
// and every object returned through Slab.Put is filled with 0xA5 bytes,
// so an object that is read before its call site initialized it — or
// through a pointer that outlived its window or its release — shows up as
// garbage (or a fault) instead of as a plausible stale value.
func SetPoison(on bool) { poison.Store(on) }

// Pool is the shared stock of free chunks, one LIFO list per element
// type. It is safe for concurrent use; the zero value is ready.
type Pool struct {
	mu     sync.Mutex
	lists  map[any]any // chunkKey[T]{} or scratchKey[T]{} -> *freeList[T]
	leased int         // chunks out on lease (handed out, not yet returned or adopted)
	held   int         // chunks the pool is responsible for: leased plus free
	high   int         // the largest held has been
	forgot int         // bytes captures forgot since the last collection (see collectEvery)
}

// Leased reports how many chunks are currently out on lease: handed to a
// slab and neither returned by a rewind nor adopted by a capture.
func (p *Pool) Leased() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leased
}

// HighWater reports the most chunks the pool has held at once, leased and
// free together: the pool's share of a process's peak memory.
func (p *Pool) HighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.high
}

// chunkKey and scratchKey key a pool's two kinds of free list per element
// type: fixed-size chunks (bump.grow) and scratch buffers (Borrow).
type (
	chunkKey[T any]   struct{}
	scratchKey[T any] struct{}
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
// it capture and rewind together, and the bytes they lease between two
// rewinds count against WindowCeiling. An Arena belongs to one simulation
// goroutine at a time.
type Arena struct {
	pool  *Pool
	stop  func()
	slabs []rewinder
	marks []Mark
	owned int // chunks still held right after the last Capture
	// epoch tells the objects a window carved from those the last Capture
	// kept (see Holders): it starts at 1, so a zero Holders never matches,
	// and every Capture moves it on.
	epoch uint16

	window   int // bytes leased since the last Capture or Rewind
	overflow bool
}

type rewinder interface {
	Mark() Mark
	Rewind(Mark)
	adopt() (adopted, forgot int)
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

// Capture fixes the rewind point of every slab at its current position
// and adopts the chunks below it: they leave the pool's lease count, and
// each slab keeps only the chunk it is still carving — whatever the
// snapshot references in the others stays alive through those references
// alone, and the rest is the collector's: every collectEvery bytes the
// pool's arenas forget, the capture that crosses the line collects.
func (a *Arena) Capture() {
	a.marks = a.marks[:0]
	a.owned = 0
	adopted, forgot := 0, 0
	for _, s := range a.slabs {
		n, bytes := s.adopt()
		adopted += n
		forgot += bytes
		a.marks = append(a.marks, s.Mark())
		a.owned += s.held()
	}
	p := a.pool
	p.mu.Lock()
	p.leased -= adopted
	p.held -= adopted
	p.forgot += forgot
	collect := p.forgot >= collectEvery
	if collect {
		p.forgot = 0
	}
	p.mu.Unlock()
	if collect {
		runtime.GC()
	}
	a.window, a.overflow = 0, false
	a.epoch++
	if a.epoch == poisonEpoch {
		a.epoch++
	}
	if a.epoch == 0 {
		a.epoch = 1
	}
}

// Rewind rolls every slab back to its captured mark (to empty when the
// arena was never captured) and hands the chunks above the marks back to
// the pool.
func (a *Arena) Rewind() {
	for i, s := range a.slabs {
		var m Mark
		if i < len(a.marks) {
			m = a.marks[i]
		}
		s.Rewind(m)
	}
	a.window, a.overflow = 0, false
}

// Pool returns the pool the arena leases from.
func (a *Arena) Pool() *Pool { return a.pool }

// Overflowed reports whether the arena crossed WindowCeiling since the
// last Capture or Rewind.
func (a *Arena) Overflowed() bool { return a.overflow }

// Held reports how many chunks the arena's slabs hold right now; a parked
// deployment has Held == Owned.
func (a *Arena) Held() int {
	n := 0
	for _, s := range a.slabs {
		n += s.held()
	}
	return n
}

// Owned reports how many chunks the slabs kept at the last Capture (at
// most one each).
func (a *Arena) Owned() int { return a.owned }

func (a *Arena) charge(bytes int) {
	a.window += bytes
	if a.window > WindowCeiling && !a.overflow {
		a.overflow = true
		if a.stop != nil {
			a.stop()
		}
	}
}

// Mark is a rewind point of one slab: the number of chunks held and the
// next free slot in the last of them.
type Mark struct{ chunks, off int }

// bump is the chunk bookkeeping Slab and Span share. The chunk being
// carved is always the last one held, because a rewind releases
// everything above its mark.
type bump[T any] struct {
	arena    *Arena
	free     *freeList[T]
	chunkLen int
	chunks   [][]T
	cur      []T // chunks[len(chunks)-1], nil when empty
	off      int // next free slot in cur
	leased   int // chunks[len(chunks)-leased:] are on lease from the pool
}

func newBump[T any](a *Arena) bump[T] {
	var zero T
	n := 1
	if size := int(unsafe.Sizeof(zero)); size > 0 && chunkBytes/size > 1 {
		n = chunkBytes / size
	}
	return bump[T]{arena: a, free: listFor[T](a.pool, chunkKey[T]{}), chunkLen: n}
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
	b.leased++
	var zero T
	b.arena.charge(len(c) * int(unsafe.Sizeof(zero)))
}

// Mark returns the current allocation position.
func (b *bump[T]) Mark() Mark { return Mark{chunks: len(b.chunks), off: b.off} }

// Rewind rolls the allocation position back to m and returns the chunks
// above it to the pool (oversize chunks go to the garbage collector).
// Objects carved after m must be unreachable, or at least never read
// again; they are zeroed. Objects carved before m are untouched. m must
// not precede the arena's last Capture: the chunks below that are no
// longer the pool's.
func (b *bump[T]) Rewind(m Mark) {
	b.zeroAbove(m)
	if above := b.chunks[m.chunks:]; len(above) > 0 {
		fill := poison.Load()
		p := b.arena.pool
		p.mu.Lock()
		p.leased -= len(above)
		b.leased -= len(above)
		for i, c := range above {
			if len(c) == b.chunkLen {
				if fill {
					poisonChunk(c)
				}
				b.free.chunks = append(b.free.chunks, c)
			} else {
				p.held--
			}
			above[i] = nil
		}
		p.mu.Unlock()
		b.chunks = b.chunks[:m.chunks]
	}
	b.cur = nil
	if m.chunks > 0 {
		b.cur = b.chunks[m.chunks-1]
	}
	b.off = m.off
}

// zeroAbove zeroes every element carved after m: the tail of m's chunk
// and the carved part of each pooled chunk above it. A chunk comes from
// the pool or from make zeroed (poisoned, under SetPoison) and is carved
// from its start, so zeroing what was carved keeps every pooled chunk
// free of pointers; an oversize chunk is left to the collector.
func (b *bump[T]) zeroAbove(m Mark) {
	if m.chunks == len(b.chunks) {
		clear(b.cur[m.off:b.off])
		return
	}
	if m.chunks > 0 {
		clear(b.chunks[m.chunks-1][m.off:])
	}
	for _, c := range b.chunks[m.chunks : len(b.chunks)-1] {
		if len(c) == b.chunkLen {
			clear(c)
		}
	}
	if len(b.cur) == b.chunkLen {
		clear(b.cur[:b.off])
	}
}

// adopt takes every held chunk off lease and forgets all but the current
// one; it reports how many were on lease and how many bytes it forgot.
func (b *bump[T]) adopt() (adopted, forgot int) {
	if n := len(b.chunks); n > 1 {
		var zero T
		for _, c := range b.chunks[:n-1] {
			forgot += len(c) * int(unsafe.Sizeof(zero))
		}
		clear(b.chunks[:n-1])
		b.chunks = append(b.chunks[:0], b.cur)
	}
	adopted = b.leased
	b.leased = 0
	return adopted, forgot
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
	// freed holds the objects Put handed back, last in first out. They
	// still sit in the slab's chunks, so the list is emptied whenever the
	// chunks change hands: a Rewind returns them to the pool and a Capture
	// forgets them, and a pointer left here would alias or pin them.
	freed []*T
}

// New creates a slab of T in the arena.
func New[T any](a *Arena) *Slab[T] {
	s := &Slab[T]{bump: newBump[T](a)}
	a.slabs = append(a.slabs, s)
	return s
}

// Get returns the next object, dirty: the caller must assign every field.
// Objects handed back through Put go out again first.
func (s *Slab[T]) Get() *T {
	if k := len(s.freed); k > 0 {
		p := s.freed[k-1]
		s.freed = s.freed[:k-1]
		return p
	}
	if s.off == len(s.cur) {
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
	s.freed = append(s.freed, p)
}

// Rewind is bump.Rewind with the free list emptied first.
func (s *Slab[T]) Rewind(m Mark) {
	s.dropFreed()
	s.bump.Rewind(m)
}

// adopt is bump.adopt with the free list emptied first.
func (s *Slab[T]) adopt() (adopted, forgot int) {
	s.dropFreed()
	return s.bump.adopt()
}

// dropFreed empties the free list and drops every pointer it ever held,
// popped ones included: they point into chunks a rewind returns and a
// capture forgets, and a pointer left in the backing array would keep
// such a chunk alive.
func (s *Slab[T]) dropFreed() {
	clear(s.freed[:cap(s.freed)])
	s.freed = s.freed[:0]
}

// Holders is the holder count of an object several holders share: the
// deliveries in flight that carry it and whatever the protocol keeps it in
// (DESIGN.md §15). Share starts it, Hold and Drop move it, and the holder
// whose Drop reports the last one puts the object back.
//
// An object whose count was not started in the arena's current epoch is
// never counted: Hold and Drop leave it alone. That covers the zero value
// (an object built on the heap) and every object carved before the last
// Capture, which the snapshot references and every fork reads again — a
// window may neither release one nor write its count, or the next fork
// would start from different memory than the cold run.
//
// It is four bytes, so that it fits the padding of most messages: a
// window of a duplicated-ack storm holds hundreds of thousands of them.
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
// point the buffer back at memory from before the mark (the backing array
// it had at capture time).
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
func Borrow[T any](p *Pool) []T {
	l := listFor[T](p, scratchKey[T]{})
	p.mu.Lock()
	defer p.mu.Unlock()
	l.out++
	k := len(l.chunks) - 1
	if k < 0 {
		return nil
	}
	buf := l.chunks[k]
	l.chunks[k] = nil
	l.chunks = l.chunks[:k]
	return buf[:0]
}

// Return stocks a scratch buffer for the next Borrow. A Return that
// matches no Borrow — a buffer its owner grew itself during warm-up — is
// dropped, so the stock never exceeds the buffers out at one time. A nil
// buf settles a Borrow and stocks nothing: the borrowed buffer is left to
// the collector.
func Return[T any](p *Pool, buf []T) {
	l := listFor[T](p, scratchKey[T]{})
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.out == 0 {
		return
	}
	l.out--
	if cap(buf) > 0 {
		l.chunks = append(l.chunks, buf)
	}
}
