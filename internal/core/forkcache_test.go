package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForkCacheCheckoutChurn: Acquire/Release round-trips reuse the same
// deployment instead of rebuilding.
func TestForkCacheCheckoutChurn(t *testing.T) {
	var c ForkCache[int, *int]
	builds := 0
	build := func() *int { builds++; v := builds; return &v }
	for i := 0; i < 10; i++ {
		d := c.Acquire(7, build)
		if *d != 1 {
			t.Fatalf("checkout %d got deployment %d; want the single cached build", i, *d)
		}
		c.Release(7, d)
	}
	if builds != 1 {
		t.Fatalf("%d builds for 10 sequential checkouts; want 1", builds)
	}
}

// TestForkCacheCap: the free list is bounded by the machine's
// parallelism, so shrinking worker counts cannot strand an unbounded pile
// of warm deployments.
func TestForkCacheCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var c ForkCache[string, int]
	for i := 0; i < 5; i++ {
		c.Release("k", i)
	}
	n := 0
	c.Each(func(string, int) { n++ })
	if n != 2 {
		t.Fatalf("free list holds %d deployments after 5 releases with cap 2; want 2", n)
	}
	// Released deployments beyond the cap are dropped, not queued: the
	// two cached ones check out, the next Acquire builds.
	builds := 0
	c.Acquire("k", func() int { builds++; return -1 })
	c.Acquire("k", func() int { builds++; return -1 })
	c.Acquire("k", func() int { builds++; return -1 })
	if builds != 1 {
		t.Fatalf("%d builds after draining a cap-2 free list with 3 checkouts; want 1", builds)
	}
}

// TestForkCachePrepareDedup: Prepare builds at most once per key, is a
// no-op when a deployment is cached, and never stalls an Acquire — a
// worker needing the deployment during an in-flight prefetch builds its
// own instead of waiting.
func TestForkCachePrepareDedup(t *testing.T) {
	var c ForkCache[int, int]
	var builds atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Prepare(1, func() int {
			close(started) // the build slot is registered before build runs
			<-release
			builds.Add(1)
			return 100
		})
		close(done)
	}()
	<-started
	// Concurrent Prepare for the same key: deduplicated, no second build.
	c.Prepare(1, func() int { builds.Add(1); return 300 })
	// Acquire does not wait for the prefetch; it builds its own.
	if d := c.Acquire(1, func() int { builds.Add(1); return 200 }); d != 200 {
		t.Fatalf("Acquire got deployment %d; want its own build 200 (must not stall on the prefetch)", d)
	}
	close(release)
	<-done
	if b := builds.Load(); b != 2 {
		t.Fatalf("%d builds; want 2 (one prefetch, one unstalled Acquire)", b)
	}
	// The prepared deployment landed in the cache for the next checkout,
	// and Prepare on a cached key is a no-op.
	c.Prepare(1, func() int { builds.Add(1); return 400 })
	if d := c.Acquire(1, func() int { builds.Add(1); return 500 }); d != 100 {
		t.Fatalf("Acquire got %d; want the prepared 100 from the cache", d)
	}
	if b := builds.Load(); b != 2 {
		t.Fatalf("Prepare rebuilt a cached key (%d builds)", b)
	}
}

// TestForkCacheConcurrentChurn hammers Acquire/Release/Prepare from many
// goroutines (meaningful under -race).
func TestForkCacheConcurrentChurn(t *testing.T) {
	var c ForkCache[int, *int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := i % 3
				c.Prepare(key, func() *int { v := key; return &v })
				d := c.Acquire(key, func() *int { v := key; return &v })
				if *d != key {
					t.Errorf("checked out deployment for key %d holds %d", key, *d)
					return
				}
				c.Release(key, d)
			}
		}(g)
	}
	wg.Wait()
}
