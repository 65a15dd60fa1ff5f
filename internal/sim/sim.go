// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). All protocol code in this repository runs
// inside event callbacks on a single goroutine, which makes every test a
// deterministic function of its inputs and seed: the same scenario always
// produces the same trace, the same throughput and the same latency.
//
// Virtual time is decoupled from wall-clock time, so a multi-second PBFT
// run with hundreds of clients completes in milliseconds. This is the
// stand-in for the paper's Emulab testbed (see DESIGN.md §19).
//
// Events live in a flat arena indexed by small integers and the queue is
// one heap of pointer-free value nodes, so the sift operations of a busy
// simulation never touch the garbage collector's write barrier. The arena
// is also what makes Snapshot/Restore cheap: capturing the entire engine
// state is one struct copy and four slice clones, and restoring is a
// delta — only the slots dirtied since the capture copy back (DESIGN.md
// §19).
//
// Timers (Schedule, At) are cancelable closures with a queue node each,
// and Reset moves a pending one to a later instant without touching the
// queue: the node stays put and takes its new key if it surfaces early;
// deliveries (Stream.Schedule) are uncancelable fn(arg, meta) calls, held
// by value, of which consecutive ones for one instant share a node: a
// network's fan-out costs the queue one event, not one per message
// (DESIGN.md §19).
package sim

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"avd/internal/slab"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation start.
type Time int64

// Add returns the time d after t. Negative results are clamped to t so a
// caller cannot schedule into the past.
func (t Time) Add(d time.Duration) Time {
	nt := t + Time(d)
	if nt < t {
		return t
	}
	return nt
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Timer is a value handle to a scheduled callback. The zero value is an
// inactive timer on which Stop and Active are safe no-ops; live timers
// are created by Engine.Schedule, Engine.At and Engine.Reset.
//
// Timers are values, not pointers: scheduling allocates nothing for the
// handle, and the underlying arena slot is recycled through the engine's
// free list after it fires or its cancellation is collected. An engine
// never reuses an event id, in this fork or a later one, and a handle only
// resolves while its slot holds its id — a Timer kept after its event fired
// (or after a Restore to before it) can never affect the slot's next event.
type Timer struct {
	eng *Engine
	idx int32
	gen uint64
}

// ev resolves the timer's arena slot, nil when the handle is stale.
func (t Timer) ev() *event {
	if t.eng == nil || int(t.idx) >= len(t.eng.arena) {
		return nil
	}
	ev := &t.eng.arena[t.idx]
	if ev.gen != t.gen {
		return nil
	}
	return ev
}

// Stop cancels the timer: its queue node is removed and its slot recycled
// at once, so the queue never holds a canceled event. It reports whether the
// call prevented the callback from firing (false if it already fired or was
// already stopped).
func (t Timer) Stop() bool {
	if t.ev() == nil {
		return false
	}
	t.eng.live--
	t.eng.remove(t.idx)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool { return t.ev() != nil }

// When returns the virtual time at which the timer fires (meaningless
// once the timer is no longer Active).
func (t Timer) When() Time {
	ev := t.ev()
	if ev == nil {
		return 0
	}
	return ev.at
}

// event is one arena slot: a timer (fn) or a train of deliveries (tr).
// Both are cleared on recycle so the arena never pins dead callbacks.
type event struct {
	at Time
	// seq is the insertion sequence the event fires under: with at, its key.
	// Reset rewrites the key and leaves the queue node where it is, so a node
	// whose seq is not its slot's is stale — never later than the key, and
	// re-keyed to it when it reaches the front (see Engine.fire).
	seq uint64
	gen uint64 // the queued event's id, 0 while the slot is free; validates Timer handles
	// touched is the dirty-tracking watermark: the engine's dirtySeq value
	// as of the last mutation of this slot. A slot whose watermark matches
	// the current dirtySeq is already on the dirty list, so delta Restore
	// copies it back exactly once (see Engine.mark).
	touched uint64
	pos     int32 // the queue node's index in the heap, so Stop deletes in place
	fn      func()
	tr      *train
}

// node is one priority-queue entry: pointer-free by design, so heap
// sifts compile to plain word moves with no write barriers.
type node struct {
	at  Time
	seq uint64
	idx int32
}

// less orders nodes by (time, insertion sequence).
func less(a, b node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// engineState is what an engine changes as it runs: Snapshot copies it by
// value and clones its tables, and Restore copies it back.
type engineState struct {
	now   Time
	heap  []node  // the queue: a 4-ary min-heap of nodes by (at, seq)
	arena []event // slot storage; queue nodes and Timers index into it
	free  []int32 // recycled arena slots
	live  int     // pending events
	seq   uint64

	executed   uint64 // callbacks run
	dispatches uint64 // queue nodes popped: executed less the deliveries that rode a train
	resets     uint64 // Reset calls that left the queue node where it was
	requeues   uint64 // queue nodes a Reset cost after all: stale ones re-keyed, and moves to an earlier instant

	// clocks holds per-registered-clock drift in permille (positive runs
	// fast: scheduled delays shrink; negative runs slow). Clock 0 does not
	// exist — RegisterClock hands out indices and ScheduleSkewed scales a
	// delay through its clock before queueing.
	clocks []int32

	// stepLimit is the watchdog: when non-zero, Run/RunUntil/Step refuse to
	// fire events once executed reaches it, setting budgetHit instead of
	// looping forever on a runaway schedule (e.g. a zero-delay
	// self-rescheduling storm). 0 disables the budget.
	stepLimit uint64
	budgetHit bool

	// src is the random stream's whole state, held by value: rolling the
	// stream back is the struct copy.
	src splitmixSource
}

// Engine is a discrete-event simulator. It is not safe for concurrent use:
// all interaction must happen from the goroutine driving Run/Step, which is
// also the goroutine on which event callbacks execute.
type Engine struct {
	engineState

	gens    uint64     //avdlint:ephemeral event ids only have to be unique: never rolling the counter back is what keeps one fork's Timers inert in the next
	rng     *rand.Rand // wraps &src
	stopped bool       //avdlint:ephemeral run-scoped stop latch: Restore re-arms the engine so every fork starts runnable

	// Dirty tracking for delta Restore: track is the snapshot deltas are
	// recorded against (nil disables tracking entirely — engines that
	// never snapshot pay a single predictable branch per schedule), dirty
	// lists the arena slots mutated since the last Snapshot/Restore, and
	// dirtySeq is the watermark that keeps the list duplicate-free.
	track    *Snapshot
	dirty    []int32
	dirtySeq uint64

	// open is the train a Stream.Schedule for its instant, openAt, may join.
	open   *train //avdlint:ephemeral run-scoped: closing a train early never changes dispatch order, so Snapshot and Restore just close it
	openAt Time   //avdlint:ephemeral meaningful only while open is set, and set with it

	// freeTrains is the stock of free trains, borrowed from pool by the
	// first train a run takes or gives up and handed back by Park; nil
	// while none is borrowed.
	pool       *slab.Pool //avdlint:ephemeral where the train stock is borrowed from, set before the first train
	freeTrains []*train   //avdlint:ephemeral pool: a checkout's stream, cursor and arguments are overwritten before use
}

// splitmixSource is the engine's random source: splitmix64, whose entire
// state is one word. Snapshot captures the word and Restore copies it
// back, so rolling the random stream back is O(1) instead of re-seeding
// and replaying the stream position O(taps). The generator passes the
// usual statistical batteries and is faster per tap than the stdlib
// rngSource; it is not the stdlib stream, so traces differ from
// pre-splitmix builds of this repository.
type splitmixSource struct {
	state uint64
}

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// New returns an engine whose randomness derives entirely from seed.
func New(seed int64) *Engine {
	e := &Engine{engineState: engineState{src: splitmixSource{state: uint64(seed)}}}
	e.rng = rand.New(&e.src)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All protocol and
// network randomness must come from here to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of callbacks (timers, deliveries) run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Dispatches returns the number of queue nodes popped so far.
func (e *Engine) Dispatches() uint64 { return e.dispatches }

// Resets returns the number of Reset calls that moved no queue node.
func (e *Engine) Resets() uint64 { return e.resets }

// Requeues returns the number of queue nodes Reset has cost: stale nodes
// the dispatcher re-keyed plus timers Reset moved to an earlier instant.
func (e *Engine) Requeues() uint64 { return e.requeues }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.live }

// RegisterClock allocates a per-node virtual clock and returns its id.
// A fresh clock has zero skew: ScheduleSkewed through it is identical to
// Schedule. Clocks are registered at deployment build time, so restoring
// a snapshot never changes the clock count, only the skews.
func (e *Engine) RegisterClock() int {
	e.clocks = append(e.clocks, 0)
	return len(e.clocks) - 1
}

// SetSkew sets a registered clock's drift in permille: +100 means the
// node's clock runs 10% fast, so its relative timeouts fire 10% early in
// global virtual time; -100 runs 10% slow. Skew is captured by Snapshot
// and rolled back by Restore.
func (e *Engine) SetSkew(clock int, permille int32) {
	if permille <= -1000 {
		// A clock running backwards (or stopped) would schedule everything
		// at now; clamp to "almost stopped" instead.
		permille = -999
	}
	e.clocks[clock] = permille
}

// Skew returns a registered clock's current drift in permille.
func (e *Engine) Skew(clock int) int32 { return e.clocks[clock] }

// skewed converts a node-local delay to a global-time delay through the
// clock's drift. Zero skew is a single compare on the hot path.
func (e *Engine) skewed(clock int, d time.Duration) time.Duration {
	s := e.clocks[clock]
	if s == 0 || d <= 0 {
		return d
	}
	return d * 1000 / time.Duration(1000+int64(s))
}

// ScheduleSkewed is Schedule with d interpreted as a duration on the
// given node-local clock: a fast clock (positive skew) makes the callback
// fire earlier in global time, a slow one later.
func (e *Engine) ScheduleSkewed(clock int, d time.Duration, fn func()) Timer {
	return e.At(e.now.Add(e.skewed(clock, d)), fn)
}

var eagerResets atomic.Bool

// SetEagerResets is a test hook no flag, option or config field reaches:
// while on, every Reset is the Stop and the At it stands for.
func SetEagerResets(on bool) { eagerResets.Store(on) }

// Reset re-arms t: exactly t.Stop() followed by At(at, fn), down to the seq
// and the event id the pair takes, and t is inert afterwards. When t is
// pending and at is no earlier than where its queue node sits, the node
// stays there and only the slot's key moves; the dispatcher re-keys the
// node to it if it comes up first (fire). Order is unchanged:
// events fire in (at, seq) order of their slots' keys, and a node is never
// queued later than its slot's key.
func (e *Engine) Reset(t Timer, at Time, fn func()) Timer {
	if at < e.now {
		at = e.now
	}
	if ev := t.ev(); ev != nil && t.eng == e && !eagerResets.Load() {
		if at >= e.heap[ev.pos].at {
			if at == e.openAt {
				e.open = nil
			}
			e.gens++
			ev.at, ev.seq, ev.gen, ev.fn = at, e.seq, e.gens, fn
			e.seq++
			e.resets++
			e.mark(t.idx)
			return Timer{eng: e, idx: t.idx, gen: ev.gen}
		}
		e.requeues++
	}
	t.Stop()
	return e.At(at, fn)
}

// ResetSkewed is Reset with d a duration on the given node-local clock, as
// ScheduleSkewed is Schedule.
func (e *Engine) ResetSkewed(t Timer, clock int, d time.Duration, fn func()) Timer {
	return e.Reset(t, e.now.Add(e.skewed(clock, d)), fn)
}

// SetStepBudget arms the runaway-scenario watchdog: the engine will fire
// at most steps more events before Run/RunUntil/Step stop dispatching and
// BudgetExceeded reports true. steps == 0 disarms the watchdog and clears
// a tripped flag.
func (e *Engine) SetStepBudget(steps uint64) {
	if steps == 0 {
		e.stepLimit, e.budgetHit = 0, false
		return
	}
	e.stepLimit = e.executed + steps
	e.budgetHit = false
}

// BudgetExceeded reports whether a step budget armed by SetStepBudget ran
// out — the signature of a hung scenario (virtual time stopped advancing
// under an event storm).
func (e *Engine) BudgetExceeded() bool { return e.budgetHit }

// overBudget checks (and latches) the watchdog before an event fires.
func (e *Engine) overBudget() bool {
	if e.stepLimit != 0 && e.executed >= e.stepLimit {
		e.budgetHit = true
		return true
	}
	return false
}

// Schedule runs fn after virtual duration d and returns a cancelable timer.
// A non-positive d schedules fn at the current time, after events already
// queued for that time.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	return e.At(e.now.Add(d), fn)
}

// At runs fn at virtual time t (clamped to now if t is in the past).
func (e *Engine) At(t Time, fn func()) Timer {
	return e.schedule(t, fn, nil)
}

// Stream is an uncancelable flow of fn(arg, meta) deliveries, the shape of
// network traffic: one long-lived fn, no closure and no Timer per send, and
// each delivery a value the engine holds until it runs. Consecutive
// Schedule calls that land on one instant, nothing else scheduled for it in
// between, ride one queue node (a train): events fire in (at, seq) order,
// so they are adjacent whatever is scheduled later. Each still takes a seq
// and counts in Executed, Pending and the step budget.
type Stream struct {
	eng *Engine
	fn  func(arg any, meta uint64)
}

// Owned is the bit of a delivery's meta word that marks it as holding one
// of its arg's holder counts. Snapshot clears it in every pending delivery,
// the live one and the captured one alike: whatever is in flight at a
// capture is delivered again by every fork, so no delivery of it owns it.
// The engine reads no other bit of meta.
const Owned uint64 = 1 << 63

// NewStream returns a stream that calls fn with each scheduled delivery.
func (e *Engine) NewStream(fn func(arg any, meta uint64)) *Stream {
	return &Stream{eng: e, fn: fn}
}

// delivery is one Stream.Schedule call, by value.
type delivery struct {
	arg  any
	meta uint64
}

// train is one queue node's deliveries: ds[:next] ran.
type train struct {
	s    *Stream
	ds   []delivery
	next int
	one  [1]delivery // ds' first backing array: a train of one is one cache line
}

var splitTrains atomic.Bool

// SetSplitTrains is a test hook no flag, option or config field reaches:
// while on, every delivery gets a queue node of its own, as before trains.
func SetSplitTrains(on bool) { splitTrains.Store(on) }

// Schedule delivers (arg, meta) after d, behind all that is queued for that
// instant.
func (s *Stream) Schedule(d time.Duration, arg any, meta uint64) {
	e := s.eng
	t := e.now.Add(d)
	if tr := e.open; tr != nil && t == e.openAt && tr.s == s {
		tr.ds = append(tr.ds, delivery{arg, meta})
		e.seq++
		e.live++
		return
	}
	tr := e.getTrain()
	tr.s = s
	tr.ds = append(tr.ds, delivery{arg, meta})
	e.schedule(t, nil, tr)
	if !splitTrains.Load() {
		e.open, e.openAt = tr, t
	}
}

// SetPool makes the engine borrow its train stock from p, which every
// deployment of a harness shares; an engine given none borrows from a pool
// of its own. It must come before the engine's first delivery.
func (e *Engine) SetPool(p *slab.Pool) { e.pool = p }

// borrowTrains takes a train stock from the pool.
func (e *Engine) borrowTrains() {
	if e.pool == nil {
		e.pool = new(slab.Pool)
	}
	e.freeTrains = slab.BorrowStock[*train](e.pool)
	if e.freeTrains == nil { // none stocked yet; nil would mean none borrowed
		e.freeTrains = make([]*train, 0, 64)
	}
}

func (e *Engine) getTrain() *train {
	if e.freeTrains == nil {
		e.borrowTrains()
	}
	if n := len(e.freeTrains); n > 0 {
		tr := e.freeTrains[n-1]
		e.freeTrains = e.freeTrains[:n-1]
		return tr
	}
	tr := new(train)
	tr.ds = tr.one[:0]
	return tr
}

// putTrain stocks a train, dropping what it still references: the stock
// goes from deployment to deployment, so a train in it must not keep one
// alive.
func (e *Engine) putTrain(tr *train) {
	if len(tr.ds) == 1 {
		tr.ds[0] = delivery{} // all of jittered traffic: no call into the runtime
	} else {
		clear(tr.ds)
	}
	tr.s, tr.ds, tr.next = nil, tr.ds[:0], 0
	if e.freeTrains == nil {
		e.borrowTrains()
	}
	e.freeTrains = append(e.freeTrains, tr)
}

// Park hands back what a run borrowed: every train queued in a slot
// changed since the last Snapshot or Restore, whose deliveries a rollback
// discards, and the stock of free trains, to the pool they came from. A
// parked engine holds only its capture's trains: the detached masters and
// the copies of them the last Restore queued. Park is idempotent, and only
// Restore may follow it, or a run when no slot changed since a Snapshot.
func (e *Engine) Park() {
	e.open = nil
	for _, idx := range e.dirty {
		if ev := &e.arena[idx]; ev.tr != nil {
			e.putTrain(ev.tr)
			ev.tr = nil
		}
	}
	if e.freeTrains != nil {
		slab.ReturnStock(e.pool, e.freeTrains)
		e.freeTrains = nil
	}
}

// Trains reports how many trains the engine holds besides its capture's:
// the stock it borrowed and those queued in slots changed since the last
// Snapshot or Restore. A parked engine holds none.
func (e *Engine) Trains() int {
	n := len(e.freeTrains)
	for _, idx := range e.dirty {
		if e.arena[idx].tr != nil {
			n++
		}
	}
	return n
}

func (e *Engine) schedule(t Time, fn func(), tr *train) Timer {
	if t < e.now {
		t = e.now
	}
	if t == e.openAt {
		e.open = nil
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	e.gens++
	ev.at, ev.seq, ev.gen = t, e.seq, e.gens
	ev.fn, ev.tr = fn, tr
	if e.track != nil && ev.touched != e.dirtySeq {
		ev.touched = e.dirtySeq
		e.dirty = append(e.dirty, idx)
	}
	e.push(node{at: t, seq: e.seq, idx: idx})
	e.seq++
	e.live++
	return Timer{eng: e, idx: idx, gen: ev.gen}
}

// mark records a slot mutation for delta Restore; it is a no-op while no
// snapshot is being tracked, and each slot enters the dirty list at most
// once per tracking window.
func (e *Engine) mark(idx int32) {
	if e.track == nil {
		return
	}
	ev := &e.arena[idx]
	if ev.touched != e.dirtySeq {
		ev.touched = e.dirtySeq
		e.dirty = append(e.dirty, idx)
	}
}

// recycle returns an arena slot to the free list, invalidating every
// Timer handle that still points at it.
func (e *Engine) recycle(idx int32) {
	ev := &e.arena[idx]
	ev.gen = 0
	ev.fn, ev.tr = nil, nil
	if e.track != nil && ev.touched != e.dirtySeq {
		ev.touched = e.dirtySeq
		e.dirty = append(e.dirty, idx)
	}
	e.free = append(e.free, idx)
}

// fire dispatches the queue's minimum and reports true. A train closes when
// its first delivery runs and runs its deliveries back to back, passing
// the run loop's own gates between every two (one is Step's: exactly one
// callback); an interrupted train stays queued at its cursor, under its
// first key, which still sorts first: nothing else of its instant preceded
// its close.
//
// A stale minimum is re-keyed instead and fire reports false, having run no
// callback, moved no clock and counted no dispatch: the caller looks again.
// The node takes its slot's key where it sits, at the root, and sinks; no
// slot changes, so nothing is marked (Restore recomputes every pos). No event
// is passed over that way, because a node is never later than its slot's
// key: a stale one surfaces, and moves, before its key is due.
func (e *Engine) fire(one bool) bool {
	nd := e.heap[0]
	ev := &e.arena[nd.idx]
	if ev.seq != nd.seq {
		e.requeues++
		nd.at, nd.seq = ev.at, ev.seq
		e.siftDown(nd, 0)
		return false
	}
	e.now = nd.at
	tr := ev.tr
	if tr != nil {
		if tr == e.open {
			e.open = nil
		}
		if len(tr.ds) > 1 {
			e.deliver(tr, nd.idx, one)
			return true
		}
	}
	e.pop()
	e.dispatches++
	e.executed++
	e.live--
	fn := ev.fn
	e.recycle(nd.idx)
	if tr == nil {
		fn()
		return true
	}
	// A train of one — all of jittered traffic — has no cursor to keep.
	d, deliver := tr.ds[0], tr.s.fn
	e.putTrain(tr)
	deliver(d.arg, d.meta)
	return true
}

func (e *Engine) deliver(tr *train, idx int32, one bool) {
	e.mark(idx) // the cursor is about to move
	fn := tr.s.fn
	for {
		d := tr.ds[tr.next]
		tr.next++
		e.executed++
		e.live--
		fn(d.arg, d.meta)
		if tr.next == len(tr.ds) {
			break
		}
		if one || e.stopped || e.overBudget() {
			return
		}
	}
	e.pop()
	e.dispatches++
	e.recycle(idx)
	e.putTrain(tr)
}

// Step fires the next event. It reports false when the queue is empty or
// the engine was stopped.
func (e *Engine) Step() bool {
	for !e.stopped && !e.overBudget() && len(e.heap) > 0 {
		if e.fire(true) {
			return true
		}
	}
	return false
}

// Run fires events until the queue drains, Stop is called, or the step
// budget runs out.
func (e *Engine) Run() {
	for !e.stopped && !e.overBudget() && len(e.heap) > 0 {
		e.fire(false)
	}
}

// RunUntil fires all events scheduled at or before t, then advances the
// clock to t. Events scheduled for later remain queued. If the step
// budget runs out mid-window, dispatch stops but the clock still advances
// to t, so a harness measuring a hung scenario completes its window.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped && !e.overBudget() && len(e.heap) > 0 && e.heap[0].at <= t {
		e.fire(false)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop aborts Run/RunUntil at the next event boundary. The engine can be
// resumed afterwards by calling Resume and then Run again.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears the stopped flag set by Stop.
func (e *Engine) Resume() { e.stopped = false }

// The queue is a 4-ary min-heap over pointer-free nodes: sifts are plain
// word moves (no write barriers), the tree is half as deep as a binary
// heap's, and sibling nodes share cache lines. Each arena slot tracks its
// node's position so Stop deletes in place instead of leaving a tombstone.

// place writes nd at heap position i and records the position.
func (e *Engine) place(nd node, i int) {
	e.heap[i] = nd
	e.arena[nd.idx].pos = int32(i)
}

// push inserts nd into the heap.
func (e *Engine) push(nd node) {
	e.heap = append(e.heap, node{})
	e.siftUp(nd, len(e.heap)-1)
}

func (e *Engine) siftUp(nd node, i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !less(nd, h[parent]) {
			break
		}
		e.place(h[parent], i)
		i = parent
	}
	e.place(nd, i)
}

func (e *Engine) siftDown(nd node, i int) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(h[c], h[smallest]) {
				smallest = c
			}
		}
		if !less(h[smallest], nd) {
			break
		}
		e.place(h[smallest], i)
		i = smallest
	}
	e.place(nd, i)
}

// pop removes the minimum node.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	tail := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(tail, 0)
	}
}

// remove deletes the queued event in arena slot idx and recycles the
// slot. The caller guarantees the slot holds a live queued event.
func (e *Engine) remove(idx int32) {
	i := int(e.arena[idx].pos)
	e.recycle(idx)
	h := e.heap
	n := len(h) - 1
	tail := h[n]
	e.heap = h[:n]
	if i == n {
		return
	}
	if i > 0 && less(tail, h[(i-1)/4]) {
		e.siftUp(tail, i)
	} else {
		e.siftDown(tail, i)
	}
}

// --- Snapshot / Restore -----------------------------------------------------

// Snapshot is a restorable capture of the engine's complete state: clock,
// event queue, arena (including pending callbacks), free list, insertion
// sequence and the random stream state. It is bound to the engine that
// produced it: pending callbacks are closures over that engine's
// simulation objects, so restoring rolls the same simulation back rather
// than cloning it onto another.
type Snapshot struct {
	owner *Engine
	engineState
	// trainIdx lists the slots holding a pending train: the snapshot arena
	// points at a detached master of each, Restore hands out fresh copies.
	trainIdx []int32
}

// Snapshot captures the engine state and arms delta tracking: until the
// next Snapshot, the engine records which arena slots are mutated, so
// restoring this snapshot copies back only the touched slots instead of
// the whole arena. The capture does not perturb the simulation: a run
// that continues from here is identical to one that never snapshotted,
// except that no delivery pending at the capture is Owned any more.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{owner: e, engineState: e.engineState}
	s.heap = slices.Clone(e.heap)
	s.arena = slices.Clone(e.arena)
	s.free = slices.Clone(e.free)
	s.clocks = slices.Clone(e.clocks)
	// Detach pending trains: deliveries will move the live ones' cursors, so
	// the snapshot keeps immutable masters. What they hold is now delivered
	// by the run that continues and again by every fork: none of it is
	// owned any more, live or captured.
	for _, nd := range s.heap {
		if ev := &s.arena[nd.idx]; ev.tr != nil {
			live := ev.tr
			for i := range live.ds[live.next:] {
				live.ds[live.next+i].meta &^= Owned
			}
			ev.tr = copyTrain(new(train), live)
			s.trainIdx = append(s.trainIdx, nd.idx)
		}
	}
	e.track = s
	e.dirtySeq++
	e.dirty = e.dirty[:0]
	e.open = nil // joining a captured train would change it without dirtying its slot
	return s
}

// copyTrain fills dst with src's pending deliveries.
func copyTrain(dst, src *train) *train {
	dst.s = src.s
	dst.ds = append(dst.ds, src.ds[src.next:]...)
	return dst
}

// Restore parks the engine and rolls it back to the snapshot state. Timer
// handles taken before the snapshot become valid again (their event id is
// part of the captured arena); handles created after it go inert. Restore
// panics if the snapshot belongs to a different engine.
//
// Restoring the tracked snapshot (the most recent one) is a delta
// operation: only arena slots dirtied since the last Snapshot/Restore
// are copied back and the random stream state is a single word copy.
// Restoring an older snapshot falls back to a full-state copy and re-arms
// tracking against that snapshot; no product path does (every fork restores
// the snapshot it tracks), and tests hold the delta path to it.
func (e *Engine) Restore(s *Snapshot) {
	if s.owner != e {
		panic("sim: snapshot restored into a different engine")
	}
	e.Park()
	own := e.engineState
	e.engineState = s.engineState
	e.heap, e.arena, e.free = own.heap, own.arena, own.free
	e.stopped = false
	// Clocks only ever grow (registered at build time), so the snapshot's
	// skews copy back in place.
	e.clocks = append(own.clocks[:0], s.clocks...)

	if s == e.track {
		// Delta path: copy back exactly the slots mutated since the last
		// restore. Slots grown past the snapshot arena are invalidated;
		// untouched grown slots were already invalidated by the previous
		// restore and need no work. Park took the trains of dirty slots.
		for _, idx := range e.dirty {
			ev := &e.arena[idx]
			if int(idx) < len(s.arena) {
				*ev = s.arena[idx]
			} else {
				ev.gen = 0
				ev.fn, ev.tr = nil, nil
			}
		}
	} else {
		grown := e.arena[len(s.arena):]
		copy(e.arena, s.arena)
		for i := range grown {
			grown[i].gen = 0
			grown[i].fn, grown[i].tr = nil, nil
		}
		e.track = s
	}
	// The free list is rebuilt identically on every restore: the
	// snapshot's free slots followed by every slot grown past the
	// snapshot arena, in index order.
	e.free = append(e.free[:0], s.free...)
	for idx := len(s.arena); idx < len(e.arena); idx++ {
		e.free = append(e.free, int32(idx))
	}
	e.dirtySeq++
	e.dirty = e.dirty[:0]

	// The heap is rebuilt from the snapshot and slot positions are
	// recomputed from it, so heap sifts never need dirty tracking.
	e.heap = append(e.heap[:0], s.heap...)
	for i, nd := range e.heap {
		e.arena[nd.idx].pos = int32(i)
	}

	// Trains are re-copied per restore so each fork starts from the master's
	// cursor. A slot never dirtied keeps the previous restore's copy: none of
	// it was delivered.
	for _, idx := range s.trainIdx {
		if m := s.arena[idx].tr; e.arena[idx].tr == m {
			e.arena[idx].tr = copyTrain(e.getTrain(), m)
		}
	}
}
