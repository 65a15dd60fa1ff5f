package core

import (
	"runtime"
	"sync"
)

// ForkCache is the master-deployment checkout that fork-capable
// harnesses share (DESIGN.md §8): warm deployments keyed by
// structural identity, checked out exclusively by one worker at a time
// and returned after the forked run. It is the snapshot-era sibling of
// BaselineCache — harness infrastructure hoisted here so the PBFT and
// Raft targets cannot drift apart. The zero value is ready to use.
//
// Beyond checkout, the cache supports the pipelined campaign executor:
// Prepare builds a key's master ahead of need (at most one build per key
// in flight, deduplicated against concurrent Acquires), and the free
// list is capped so a campaign that shrinks its worker count mid-process
// cannot strand an unbounded pile of warm deployments on the GC's scan
// list.
type ForkCache[K comparable, D any] struct {
	mu   sync.Mutex
	free map[K][]D
	// building tracks in-flight Prepare builds per key, deduplicating
	// concurrent prefetches.
	building map[K]bool
}

// freeCap is the per-key free-list bound: the machine's parallelism,
// since no more than GOMAXPROCS workers can hold a key's deployment
// checked out at once. Release drops deployments beyond it.
func freeCap() int { return runtime.GOMAXPROCS(0) }

// Acquire checks out a free deployment for key, building one when none
// is available. build runs outside the lock and Acquire never blocks on
// other builds: concurrent workers on a cold cache each build their own
// — deterministically identical — master rather than serializing behind
// a single build, and a Prepare in flight for the same key does not
// stall the worker that needs the deployment right now (its product
// serves a later checkout instead).
func (c *ForkCache[K, D]) Acquire(key K, build func() D) D {
	c.mu.Lock()
	if free := c.free[key]; len(free) > 0 {
		d := free[len(free)-1]
		var zero D
		free[len(free)-1] = zero
		c.free[key] = free[:len(free)-1]
		c.mu.Unlock()
		return d
	}
	c.mu.Unlock()
	return build()
}

// Release returns a deployment to the cache for the next checkout,
// dropping it instead when the key's free list is at capacity.
func (c *ForkCache[K, D]) Release(key K, d D) {
	c.mu.Lock()
	if len(c.free[key]) >= freeCap() {
		c.mu.Unlock()
		return
	}
	if c.free == nil {
		c.free = make(map[K][]D)
	}
	c.free[key] = append(c.free[key], d)
	c.mu.Unlock()
}

// Prepare ensures a deployment for key exists or is being built, without
// checking one out: the pipelined campaign executor calls it to overlap
// the next population's master build+warmup with the current
// population's measurement. At most one Prepare build per key runs at a
// time; a key with a free deployment is a no-op.
func (c *ForkCache[K, D]) Prepare(key K, build func() D) {
	c.mu.Lock()
	if len(c.free[key]) > 0 || c.building[key] {
		c.mu.Unlock()
		return
	}
	if c.building == nil {
		c.building = make(map[K]bool)
	}
	c.building[key] = true
	c.mu.Unlock()
	// A panicking build must not leave the key marked in flight, or no
	// later Prepare would ever build it.
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		c.mu.Unlock()
	}()

	d := build()

	c.mu.Lock()
	if c.free == nil {
		c.free = make(map[K][]D)
	}
	// The prepared master always lands in the free list (even at cap):
	// it was built for an imminent checkout.
	c.free[key] = append(c.free[key], d)
	c.mu.Unlock()
}

// DropAll discards every cached deployment. Callers use it to retire
// masters that will not be checked out again — a parked warm deployment
// is pure GC scan-set weight (the PR 5 lesson: dead masters measurably
// slow every cold run that allocates alongside them; benchmark/ flushes
// between its set-up passes for exactly this reason). Subsequent Acquires
// simply rebuild.
func (c *ForkCache[K, D]) DropAll() {
	c.mu.Lock()
	clear(c.free)
	c.mu.Unlock()
}

// FreeLen reports the number of cached deployments for key (test and
// diagnostics hook).
func (c *ForkCache[K, D]) FreeLen(key K) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free[key])
}

// Each calls fn for every parked deployment (test and diagnostics hook).
// fn runs under the cache lock and must not call back into the cache.
func (c *ForkCache[K, D]) Each(fn func(K, D)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//avdlint:allow diagnostics hook: callers aggregate order-independently
	for k, free := range c.free {
		for _, d := range free {
			fn(k, d)
		}
	}
}
