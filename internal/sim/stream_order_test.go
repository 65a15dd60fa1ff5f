package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The differential test of dispatch order: random programs of timers,
// stream deliveries, cancellations, re-arms, partial runs, budgets, stops
// and snapshot rollbacks run on the real engine and on refQueue, a naive
// queue that keeps one entry per delivery in a slice sorted by
// (at, seq). Whatever the engine does to put deliveries on trains or to
// leave a re-armed timer's node where it was, both must run the same
// callbacks in the same order and report the same Now, Executed, Pending
// and BudgetExceeded after every operation.

// orderQueue is what a program drives: the engine under test or the
// reference.
type orderQueue interface {
	bind(deliver func(id int, beh byte)) // what a delivery calls when it lands
	timer(d time.Duration, fn func()) timerHandle
	reset(h timerHandle, d time.Duration, fn func()) timerHandle // h may be nil: the zero Timer
	send(stream int, d time.Duration, id int, beh byte)
	step() bool
	run()
	runFor(d time.Duration)
	setBudget(steps uint64)
	stop()
	resume()
	snapshot()
	restore()
	observe() observation
}

// timerHandle is one queue's name for a timer it scheduled.
type timerHandle interface{ stop() bool }

// observation is the queue state a program can see after an operation.
// inFlight is the number of undelivered stream deliveries: the reference
// counts its queue, the engine side counts sends less deliveries and rolls
// the count back with the engine, so a delivery a rollback lost or kept
// shows up as a mismatch.
type observation struct {
	now       Time
	executed  uint64
	pending   int
	budgetHit bool
	inFlight  int
}

// --- the reference ---------------------------------------------------------

type refEvent struct {
	at       Time
	seq      uint64
	uid      int // survives rollback, unlike seq: what a timer handle names
	fn       func()
	delivery bool
}

type refState struct {
	now       Time
	seq       uint64
	executed  uint64
	stopped   bool
	stepLimit uint64
	budgetHit bool
	evs       []refEvent // sorted by (at, seq)
}

type refQueue struct {
	refState
	nextUID int
	snap    *refState
	deliver func(id int, beh byte)
}

func (q *refQueue) bind(deliver func(int, byte)) { q.deliver = deliver }

func (q *refQueue) schedule(d time.Duration, fn func(), delivery bool) int {
	t := q.now.Add(d)
	q.nextUID++
	// seq only grows, so the new event goes behind every event of its instant.
	i := slices.IndexFunc(q.evs, func(e refEvent) bool { return e.at > t })
	if i < 0 {
		i = len(q.evs)
	}
	q.evs = slices.Insert(q.evs, i, refEvent{at: t, seq: q.seq, uid: q.nextUID, fn: fn, delivery: delivery})
	q.seq++
	return q.nextUID
}

type refTimer struct {
	q   *refQueue
	uid int
}

func (h refTimer) stop() bool {
	q := h.q
	i := slices.IndexFunc(q.evs, func(e refEvent) bool { return e.uid == h.uid })
	if i < 0 {
		return false
	}
	q.evs = slices.Delete(q.evs, i, i+1)
	return true
}

func (q *refQueue) timer(d time.Duration, fn func()) timerHandle {
	return refTimer{q, q.schedule(d, fn, false)}
}

// reset is Reset's contract spelled out: Stop, then Schedule.
func (q *refQueue) reset(h timerHandle, d time.Duration, fn func()) timerHandle {
	if h != nil {
		h.stop()
	}
	return q.timer(d, fn)
}

func (q *refQueue) send(_ int, d time.Duration, id int, beh byte) {
	q.schedule(d, func() { q.deliver(id, beh) }, true)
}

func (q *refQueue) overBudget() bool {
	if q.stepLimit != 0 && q.executed >= q.stepLimit {
		q.budgetHit = true
		return true
	}
	return false
}

func (q *refQueue) fire() {
	ev := q.evs[0]
	q.evs = q.evs[1:]
	q.now = ev.at
	q.executed++
	ev.fn()
}

func (q *refQueue) step() bool {
	if q.stopped || q.overBudget() || len(q.evs) == 0 {
		return false
	}
	q.fire()
	return true
}

func (q *refQueue) run() {
	for !q.stopped && !q.overBudget() && len(q.evs) > 0 {
		q.fire()
	}
}

func (q *refQueue) runFor(d time.Duration) {
	t := q.now.Add(d)
	for !q.stopped && !q.overBudget() && len(q.evs) > 0 && q.evs[0].at <= t {
		q.fire()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *refQueue) setBudget(steps uint64) {
	q.stepLimit, q.budgetHit = 0, false
	if steps != 0 {
		q.stepLimit = q.executed + steps
	}
}

func (q *refQueue) stop()   { q.stopped = true }
func (q *refQueue) resume() { q.stopped = false }

func (q *refQueue) snapshot() {
	s := q.refState
	s.evs = slices.Clone(q.evs)
	q.snap = &s
}

func (q *refQueue) restore() {
	q.refState = *q.snap
	q.evs = slices.Clone(q.snap.evs)
	q.stopped = false
}

func (q *refQueue) observe() observation {
	o := observation{now: q.now, executed: q.executed, pending: len(q.evs), budgetHit: q.budgetHit}
	for _, ev := range q.evs {
		if ev.delivery {
			o.inFlight++
		}
	}
	return o
}

// --- the engine under test ---------------------------------------------------

// engineQueue sends each delivery Owned, its id and behaviour in the meta
// word, the way simnet packs addresses there. A delivery must arrive with
// exactly that meta, the Owned bit cleared if and only if a snapshot was
// taken since it was sent: every delivery pending at a capture is made
// again by the run that continues and by every fork.
type engineQueue struct {
	e       *Engine
	streams [2]*Stream
	snap    *Snapshot
	deliver func(id int, beh byte)

	snaps  int         // Snapshot calls so far; never rolled back
	sentIn map[int]int // snaps as of each id's send

	inFlight, snapInFlight int
}

func newEngineQueue(t *testing.T) *engineQueue {
	q := &engineQueue{e: New(1), sentIn: make(map[int]int)}
	for i := range q.streams {
		q.streams[i] = q.e.NewStream(func(_ any, meta uint64) {
			id, beh := int(meta&^Owned>>8), byte(meta)
			if owned, want := meta&Owned != 0, q.sentIn[id] == q.snaps; owned != want {
				t.Fatalf("delivery %d arrived with Owned %v, want %v (%d snapshots since it was sent)", id, owned, want, q.snaps-q.sentIn[id])
			}
			q.inFlight--
			q.deliver(id, beh)
		})
	}
	return q
}

func (q *engineQueue) bind(deliver func(int, byte)) { q.deliver = deliver }

type engineTimer struct{ Timer }

func (h engineTimer) stop() bool { return h.Stop() }

func (q *engineQueue) timer(d time.Duration, fn func()) timerHandle {
	return engineTimer{q.e.Schedule(d, fn)}
}

func (q *engineQueue) reset(h timerHandle, d time.Duration, fn func()) timerHandle {
	t, _ := h.(engineTimer)
	return engineTimer{q.e.Reset(t.Timer, q.e.Now().Add(d), fn)}
}

func (q *engineQueue) send(stream int, d time.Duration, id int, beh byte) {
	q.sentIn[id] = q.snaps
	q.inFlight++
	q.streams[stream].Schedule(d, nil, uint64(id)<<8|uint64(beh)|Owned)
}

func (q *engineQueue) step() bool                { return q.e.Step() }
func (q *engineQueue) run()                      { q.e.Run() }
func (q *engineQueue) runFor(d time.Duration)    { q.e.RunFor(d) }
func (q *engineQueue) setBudget(steps uint64)    { q.e.SetStepBudget(steps) }
func (q *engineQueue) stop()                     { q.e.Stop() }
func (q *engineQueue) resume()                   { q.e.Resume() }
func (q *engineQueue) dispatches() (d, x uint64) { return q.e.Dispatches(), q.e.Executed() }

func (q *engineQueue) snapshot() {
	q.snap = q.e.Snapshot()
	q.snaps++
	q.snapInFlight = q.inFlight
}

func (q *engineQueue) restore() {
	q.e.Restore(q.snap)
	q.inFlight = q.snapInFlight
}

func (q *engineQueue) observe() observation {
	return observation{
		now:       q.e.Now(),
		executed:  q.e.Executed(),
		pending:   q.e.Pending(),
		budgetHit: q.e.BudgetExceeded(),
		inFlight:  q.inFlight,
	}
}

// --- programs ----------------------------------------------------------------

// Top-level operations, one opcode byte (mod numOps) plus operand bytes.
const (
	opTimer     = iota // delay, behaviour
	opSend             // stream, delay, behaviour
	opStopTimer        // which handle
	opStep
	opRunFor // delay
	opBudget // steps (mod 8; 0 disarms)
	opStop
	opResume
	opSnapshot
	opRestore
	opRun
	opReset // which handle, delay, behaviour
	numOps
)

// What a callback does when it fires, besides logging itself: the low
// three bits of its behaviour byte pick the action, the rest is its
// operand. Scheduling from a callback draws on the program's fuel, so
// every program terminates.
const (
	behNone      = iota
	behSendNow   // zero-delay send: a train for the running instant
	behSendLater // send after operand%4 ms
	behTimer     // timer after operand%4 ms
	behStop      // Engine.Stop from inside a callback
	behStopTimer // cancel handle operand
	behFanout    // two zero-delay sends
	behChain     // send after operand%4 ms with this same behaviour
	behReset     // re-arm handle operand for operand%4 ms from now
	numBehs
)

func beh(action, operand int) byte { return byte(operand*numBehs + action) }

func delayOf(b byte) time.Duration { return time.Duration(b%4) * time.Millisecond }

// runner interprets one program against one queue. Everything it keeps
// (log, handles, ids, fuel) lives outside the queue and is never rolled
// back, so two runners of one program stay in step as long as their
// queues fire the same callbacks in the same order.
type runner struct {
	q       orderQueue
	log     []int // callback ids in firing order; negative entries are operation results
	handles []timerHandle
	nextID  int
	fuel    int
}

func (r *runner) id() int { r.nextID++; return r.nextID }

func (r *runner) result(ok bool) {
	if ok {
		r.log = append(r.log, -2)
	} else {
		r.log = append(r.log, -1)
	}
}

func (r *runner) addTimer(d time.Duration, b byte) {
	id := r.id()
	r.handles = append(r.handles, r.q.timer(d, func() { r.fire(id, b) }))
}

func (r *runner) stopTimer(k int) {
	if len(r.handles) > 0 {
		r.result(r.handles[k%len(r.handles)].stop())
	}
}

// resetTimer re-arms handle k, or the zero Timer while there is none. The
// handle it went through stays in the list, inert.
func (r *runner) resetTimer(k int, d time.Duration, b byte) {
	var h timerHandle
	if len(r.handles) > 0 {
		h = r.handles[k%len(r.handles)]
	}
	id := r.id()
	r.handles = append(r.handles, r.q.reset(h, d, func() { r.fire(id, b) }))
}

func (r *runner) fire(id int, b byte) {
	r.log = append(r.log, id)
	action, operand := int(b)%numBehs, int(b)/numBehs
	if action == behStop {
		r.q.stop()
		return
	}
	if action == behStopTimer {
		r.stopTimer(operand)
		return
	}
	if action == behNone || r.fuel == 0 {
		return
	}
	r.fuel--
	later := delayOf(byte(operand))
	switch action {
	case behSendNow:
		r.q.send(operand%2, 0, r.id(), behNone)
	case behSendLater:
		r.q.send(operand%2, later, r.id(), behNone)
	case behTimer:
		r.addTimer(later, behNone)
	case behFanout:
		r.q.send(operand%2, 0, r.id(), behNone)
		r.q.send(operand%2, 0, r.id(), behNone)
	case behChain:
		r.q.send(operand%2, later, r.id(), b)
	case behReset:
		r.resetTimer(operand, later, behNone)
	}
}

// exec runs prog and returns what was observable after each operation.
func (r *runner) exec(prog []byte) []observation {
	var seen []observation
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	snapped := false
	for len(prog) > 0 {
		switch next() % numOps {
		case opTimer:
			r.addTimer(delayOf(next()), next())
		case opSend:
			r.q.send(int(next()%2), delayOf(next()), r.id(), next())
		case opStopTimer:
			r.stopTimer(int(next()))
		case opStep:
			r.result(r.q.step())
		case opRunFor:
			r.q.runFor(delayOf(next()))
		case opBudget:
			r.q.setBudget(uint64(next() % 8))
		case opStop:
			r.q.stop()
		case opResume:
			r.q.resume()
		case opSnapshot:
			r.q.snapshot()
			snapped = true
		case opRestore:
			if snapped {
				r.q.restore()
			}
		case opRun:
			r.q.run()
		case opReset:
			r.resetTimer(int(next()), delayOf(next()), next())
		}
		seen = append(seen, r.q.observe())
	}
	return seen
}

func runProgram(q orderQueue, prog []byte) (*runner, []observation) {
	r := &runner{q: q, fuel: 256}
	q.bind(r.fire)
	return r, r.exec(prog)
}

// checkProgram runs prog on the reference and on the engine — as shipped,
// under SetSplitTrains, where every delivery has a queue node of its own
// as before trains existed, and under SetEagerResets, where every Reset
// is a Stop and an At — and fails on the first observable difference.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	want, wantSeen := runProgram(&refQueue{}, prog)

	for _, hooks := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		split, eager := hooks[0], hooks[1]
		SetSplitTrains(split)
		SetEagerResets(eager)
		eq := newEngineQueue(t)
		got, gotSeen := runProgram(eq, prog)
		SetSplitTrains(false)
		SetEagerResets(false)

		name := fmt.Sprintf("engine(split=%v, eager=%v)", split, eager)
		for i := range wantSeen {
			if gotSeen[i] != wantSeen[i] {
				t.Fatalf("%s diverges after operation %d of %s:\n got %+v\nwant %+v", name, i, disasm(prog), gotSeen[i], wantSeen[i])
			}
		}
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("%s callback order differs for %s:\n got %v\nwant %v", name, disasm(prog), got.log, want.log)
		}
		if d, x := eq.dispatches(); d > x || (split && d != x) {
			t.Fatalf("%s: %d dispatches for %d callbacks", name, d, x)
		}
		if eager && eq.e.Resets() != 0 {
			t.Fatalf("%s: %d resets left a node in place", name, eq.e.Resets())
		}
	}
}

// disasm renders a program for failure messages.
func disasm(prog []byte) string {
	names := [numOps]string{"timer", "send", "stoptimer", "step", "runfor", "budget", "stop", "resume", "snapshot", "restore", "run", "reset"}
	operands := [numOps]int{2, 3, 1, 0, 1, 1, 0, 0, 0, 0, 0, 3}
	var sb strings.Builder
	for len(prog) > 0 {
		op := prog[0] % numOps
		n := min(operands[op], len(prog)-1)
		fmt.Fprintf(&sb, "%s%v ", names[op], prog[1:1+n])
		prog = prog[1+n:]
	}
	return sb.String()
}

// fan is n same-instant sends of behaviour b on one stream: one train.
func fan(n int, b byte) []byte {
	var p []byte
	for i := 0; i < n; i++ {
		p = append(p, opSend, 0, 1, b)
	}
	return p
}

// streamOrderSeeds are the cases a train implementation gets wrong first.
func streamOrderSeeds() map[string][]byte {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// A hundred rounds of two fixed delays, a train and a timer each,
	// stepped through so the queue grows; then rolled back and run again.
	var fixedDelay []byte
	for i := 0; i < 100; i++ {
		fixedDelay = append(fixedDelay, opSend, byte(i%2), 1, behNone, opSend, byte(i%2), 1, behNone, opTimer, 2, behNone, opStep)
		if i == 70 {
			fixedDelay = append(fixedDelay, opSnapshot)
		}
	}
	fixedDelay = append(fixedDelay, opRun, opRestore, opRun)

	// A heartbeat: one timer re-armed for one fixed delay each time it has
	// fired, 65 times (handle 65, due in 2 ms). A millisecond on it is
	// re-armed in place for 2 ms more, and a second timer is scheduled for
	// that same instant: the stale node's key ties the younger timer's
	// instant, and re-keyed it must still fire ahead of it, by seq. Then two
	// timers of one instant, the second re-armed in place and canceled
	// through its new handle: Stop removes the node left behind, there is
	// nothing to re-key. Then the tie again with a capture before the node
	// surfaces and a rollback just after, nothing else having touched the
	// slot: the node is back where the capture had it, and a Stop must find
	// it there. Last, a capture with a stale node queued, run, rolled back
	// and run again.
	heartbeat := []byte{opTimer, 2, behNone, opRunFor, 2}
	for i := 0; i < 65; i++ {
		heartbeat = append(heartbeat, opReset, byte(i), 2, behNone, opRunFor, 2)
	}
	heartbeat = append(heartbeat[:len(heartbeat)-1], 1, // the 65th re-arm is still pending
		opReset, 65, 2, behNone, opTimer, 2, behNone, opRun,
		opTimer, 2, behNone, opTimer, 2, behNone, opReset, 69, 3, behNone, opStopTimer, 69, opStopTimer, 70, opTimer, 3, behNone, opRun,
		opTimer, 2, behNone, opRunFor, 1, opReset, 72, 2, behNone, opTimer, 2, behNone, opSnapshot, opRunFor, 1, opRestore, opStopTimer, 73, opRun,
		opTimer, 2, behNone, opReset, 75, 3, behNone, opSnapshot, opRun, opRestore, opStep, opRestore, opRun)

	return map[string][]byte{
		// Re-armed for later, then run to between the old deadline and the
		// new: nothing fires, Now lands on the horizon, the timer stays pending.
		"reset-later-run-between": {opTimer, 1, behNone, opReset, 0, 3, behNone, opRunFor, 2, opRunFor, 2},
		// Re-armed for earlier than where its node sits: a real Stop and At.
		"reset-earlier": {opTimer, 3, behNone, opTimer, 2, behNone, opReset, 0, 1, behNone, opRun},
		// Re-armed in place for the open train's instant between two sends:
		// the train must split — send, timer, send — as it does when the
		// re-arm moves the timer to an earlier instant and really schedules.
		"reset-splits-train":         {opTimer, 0, behNone, opSend, 0, 1, behNone, opReset, 0, 1, behNone, opSend, 0, 1, behNone, opRun},
		"reset-earlier-splits-train": {opTimer, 3, behNone, opSend, 0, 1, behNone, opReset, 0, 1, behNone, opSend, 0, 1, behNone, opRun},
		// The handle a re-arm went through is inert; the one it returned
		// cancels, and the node left behind must not bring the timer back.
		"stop-around-reset": {opTimer, 1, behNone, opTimer, 2, behNone, opReset, 0, 3, behNone, opStopTimer, 0, opStopTimer, 2, opStopTimer, 2, opRun},
		// Re-arming the zero Timer, a fired one and a stopped one is a plain At.
		"reset-not-pending": {opReset, 0, 1, behNone, opRun, opReset, 0, 1, behNone, opTimer, 2, behNone, opStopTimer, 2, opReset, 2, 1, behNone, opRun},
		// Step over a stale minimum runs exactly one callback: the re-queue
		// is not a step.
		"step-over-stale": {opTimer, 1, behNone, opTimer, 2, behNone, opReset, 0, 3, behNone, opStep, opStep, opStep},
		// The budget counts callbacks, not the stale nodes passed on the way.
		"budget-over-stale": {opTimer, 0, behNone, opTimer, 0, behNone, opTimer, 1, behNone, opReset, 0, 2, behNone, opReset, 1, 2, behNone, opBudget, 2, opRun, opRun, opBudget, 0, opRun},
		// A capture with a stale node in flight: the continuation re-queues
		// it, and so does every rollback's.
		"restore-stale-node": {opTimer, 1, behNone, opTimer, 2, behNone, opReset, 0, 3, behNone, opSnapshot, opRun, opRestore, opStep, opReset, 2, 1, behNone, opRestore, opRun},
		// Re-arms from inside callbacks, the shape of an election timer
		// pushed back by every heartbeat received.
		// A rollback undoes a re-arm that touched nothing but the slot.
		"restore-undoes-reset":  {opTimer, 1, behNone, opSnapshot, opReset, 0, 3, behNone, opRestore, opStopTimer, 1, opRun},
		"reset-in-delivery":     cat([]byte{opTimer, 3, behNone}, fan(2, beh(behReset, 0)), []byte{opSend, 1, 2, beh(behReset, 3), opRun}),
		"heartbeat-fixed-delay": heartbeat,
		// A capture with a stale node queued, run until the node surfaces and
		// is re-keyed at the root (it sinks below the 2 ms timer), rolled
		// back: the node is where the capture had it, under its old key, and
		// nothing marked the slot. A Stop through the handle taken before the
		// capture must remove it, so only the 2 ms timer fires.
		"stale-root-rekeyed-then-restore": {opTimer, 1, behNone, opReset, 0, 3, behNone, opTimer, 2, behNone, opSnapshot, opRunFor, 1, opRestore, opStopTimer, 1, opRun},

		// A timer scheduled for the train's instant between two sends must
		// split the train: send, timer, send fire in that order.
		"timer-splits-train": {opSend, 0, 1, behNone, opTimer, 1, behNone, opSend, 0, 1, behNone, opRun},
		// So must a send on another stream.
		"other-stream-splits-train": {opSend, 0, 1, behNone, opSend, 1, 1, behNone, opSend, 0, 1, behNone, opRun},
		// Zero-delay sends from inside a delivery land behind everything
		// already queued for the instant, the rest of the train included.
		"zero-delay-send-in-delivery": cat(fan(1, beh(behSendNow, 0)), fan(1, beh(behFanout, 0)), fan(2, behNone), []byte{opTimer, 1, beh(behSendNow, 0), opRun}),
		// A zero-delay storm: each train's deliveries send the next train.
		"zero-delay-chain": cat(fan(2, beh(behChain, 0)), []byte{opBudget, 7, opRun, opBudget, 0, opRun}),
		// Stop() from the second of five deliveries: the rest stay queued
		// and arrive, once, after Resume.
		"stop-mid-train": cat(fan(1, behNone), fan(1, beh(behStop, 0)), fan(3, behNone), []byte{opRun, opStep, opResume, opRun}),
		// The step budget runs out inside a train; re-arming delivers the rest.
		"budget-mid-train": cat(fan(6, behNone), []byte{opBudget, 2, opRun, opRun, opBudget, 3, opRunFor, 3, opBudget, 0, opRun}),
		// Step delivers exactly one callback of a train.
		"step-delivers-one": cat(fan(3, behNone), []byte{opStep, opStep, opTimer, 0, behNone, opStep, opStep, opStep}),
		// Snapshot with a train half delivered, finish it, roll back: the
		// remainder is delivered again, un-owned, twice over.
		"restore-half-delivered": cat(fan(4, behNone), []byte{opStep, opStep, opSnapshot, opRun, opRestore, opStep, opRestore, opRun}),
		// A send after Snapshot must not join a captured train, and a
		// rollback must discard what it added.
		"send-after-snapshot": cat(fan(2, behNone), []byte{opSnapshot}, fan(2, behNone), []byte{opRestore}, fan(2, behNone), []byte{opStep, opRestore}, fan(1, behNone), []byte{opRun, opRestore, opRun}),
		// A send for the instant of a train that has already left starts a
		// new one.
		"send-at-departed-instant": cat(fan(2, behNone), []byte{opRunFor, 1, opSend, 0, 0, behNone, opSend, 0, 0, behNone, opRun}),
		// A timer canceled around a train, and a stale handle after rollback.
		"cancel-around-train":      cat([]byte{opTimer, 1, behNone}, fan(2, beh(behStopTimer, 0)), []byte{opTimer, 1, behNone, opSnapshot, opTimer, 1, behNone, opRestore, opStopTimer, 2, opStopTimer, 1, opRun}),
		"fixed-delay-and-rollback": fixedDelay,
	}
}

// FuzzStreamOrder is the differential test over arbitrary programs; its
// seed corpus runs as a unit test on every `go test`.
func FuzzStreamOrder(f *testing.F) {
	for _, prog := range streamOrderSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("long programs only repeat short ones")
		}
		checkProgram(t, prog)
	})
}

// TestStreamOrderSeeds names the seed that fails.
func TestStreamOrderSeeds(t *testing.T) {
	for name, prog := range streamOrderSeeds() {
		t.Run(name, func(t *testing.T) { checkProgram(t, prog) })
	}
}

// TestResetsStayPut pins what the differential test cannot see either: a
// re-arm for no earlier than its node's instant moves nothing until the
// node surfaces, if it ever does.
func TestResetsStayPut(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Errorf("an arena slot is %d bytes, want 56: every parked master keeps its arena twice", got)
	}
	for _, tc := range []struct {
		name             string
		prog             []byte
		resets, requeues uint64
	}{
		{"later-and-never-reached", streamOrderSeeds()["reset-later-run-between"][:7], 1, 0},
		{"later-and-fired", streamOrderSeeds()["reset-later-run-between"], 1, 1},
		{"later-and-stopped", streamOrderSeeds()["stop-around-reset"], 1, 0},
		{"earlier", streamOrderSeeds()["reset-earlier"], 0, 1},
		{"not-pending", streamOrderSeeds()["reset-not-pending"], 0, 0},
		{"four-re-arms-one-re-queue", []byte{opTimer, 1, behNone, opReset, 0, 3, behNone, opReset, 1, 2, behNone, opReset, 2, 3, behNone, opReset, 3, 1, behNone, opRun}, 4, 1},
		{"fixed-delay", streamOrderSeeds()["heartbeat-fixed-delay"], 4, 2},
		{"stale-root-rekeyed", streamOrderSeeds()["stale-root-rekeyed-then-restore"][:13], 1, 1},         // up to and including the RunFor
		{"stale-root-rekeyed-then-restore", streamOrderSeeds()["stale-root-rekeyed-then-restore"], 1, 0}, // the rollback takes the re-key back, counter included
	} {
		t.Run(tc.name, func(t *testing.T) {
			eq := newEngineQueue(t)
			runProgram(eq, tc.prog)
			if got, moved := eq.e.Resets(), eq.e.Requeues(); got != tc.resets || moved != tc.requeues {
				t.Fatalf("%d resets in place and %d re-queues, want %d and %d", got, moved, tc.resets, tc.requeues)
			}
		})
	}
}

// TestTrainsForm pins the queue work itself, which the differential test
// cannot see: same-instant deliveries share one dispatch, and everything
// that must split a train costs exactly one more.
func TestTrainsForm(t *testing.T) {
	for _, tc := range []struct {
		name       string
		prog       []byte
		dispatches uint64
		executed   uint64
	}{
		{"one-train", fan(3, behNone), 1, 3},
		{"timer-splits", streamOrderSeeds()["timer-splits-train"], 3, 3},
		{"stream-splits", streamOrderSeeds()["other-stream-splits-train"], 3, 3},
		{"interrupted-train-is-one-dispatch", streamOrderSeeds()["stop-mid-train"], 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eq := newEngineQueue(t)
			runProgram(eq, append(slices.Clone(tc.prog), opResume, opRun))
			if d, x := eq.dispatches(); d != tc.dispatches || x != tc.executed {
				t.Fatalf("%d dispatches for %d callbacks, want %d for %d", d, x, tc.dispatches, tc.executed)
			}
		})
	}
}
