package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestBaselineCacheSingleflight: one measurement per key, no matter how
// many goroutines race for it — asserted by counting measure calls, not
// by timing.
func TestBaselineCacheSingleflight(t *testing.T) {
	var cache BaselineCache
	var calls atomic.Int64
	measure := func(key int64) float64 {
		calls.Add(1)
		return float64(key * 100)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]float64, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cache.Get(7, measure)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != 700 {
			t.Fatalf("goroutine %d got %f, want 700", i, r)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("measure ran %d times for one key, want 1", n)
	}
	// A second key measures once more; the first stays cached.
	if got := cache.Get(9, measure); got != 900 {
		t.Fatalf("Get(9) = %f", got)
	}
	if got := cache.Get(7, measure); got != 700 {
		t.Fatalf("cached Get(7) = %f", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("measure ran %d times for two keys, want 2", n)
	}
}

// TestBaselineCacheWarm: warming a batch measures each distinct key once
// and later Gets are pure cache hits.
func TestBaselineCacheWarm(t *testing.T) {
	var cache BaselineCache
	var calls atomic.Int64
	measure := func(key int64) float64 {
		calls.Add(1)
		return float64(key)
	}
	cache.Warm([]int64{1, 2, 2, 3, 1}, measure)
	if n := calls.Load(); n != 3 {
		t.Fatalf("warming 3 distinct keys measured %d times", n)
	}
	for _, k := range []int64{1, 2, 3} {
		if got := cache.Get(k, measure); got != float64(k) {
			t.Fatalf("Get(%d) = %f", k, got)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("post-warm Gets re-measured: %d calls", n)
	}
}

// TestBaselineCachePanicNotMemoized: a measurement that panics leaves no
// baseline behind. The panic reaches the caller, and the next Get of the
// key measures again instead of returning 0.
func TestBaselineCachePanicNotMemoized(t *testing.T) {
	var cache BaselineCache
	calls := 0
	measure := func(key int64) float64 {
		calls++
		if calls == 1 {
			panic("the master's build failed")
		}
		return float64(key)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the measurement's panic did not reach the caller")
			}
		}()
		cache.Get(7, measure)
	}()
	if got := cache.Get(7, measure); got != 7 || calls != 2 {
		t.Fatalf("Get after a panicked measurement returned %v after %d calls, want 7 after 2", got, calls)
	}
	if got := cache.Get(7, measure); got != 7 || calls != 2 {
		t.Fatalf("the successful measurement was not memoized: %v after %d calls", got, calls)
	}
}
