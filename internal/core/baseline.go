package core

import "sync"

// BaselineCache memoizes attack-free baseline measurements keyed by an
// int64 deployment parameter (typically the correct-client count).
// Impact is relative to these baselines, every target needs the same
// caching discipline, and parallel engine workers hit the cache
// concurrently — so the singleflight lives here, shared by
// internal/cluster, internal/raftsim and any future Target.
//
// The zero value is ready to use. BaselineCache is safe for concurrent
// use.
type BaselineCache struct {
	cells sync.Map // int64 -> *baselineCell
}

// baselineCell holds one key's baseline once a measurement of it has
// returned.
type baselineCell struct {
	mu   sync.Mutex
	done bool
	val  float64
}

// Get returns the baseline for key, measuring it with measure on first
// use. Concurrent callers for the same key share one measurement;
// different keys measure in parallel. A measurement that panics is not
// memoized: the panic goes to the caller, and the next Get of the key
// measures again, so every test that needs that baseline reports the
// panic instead of scoring against a baseline of 0.
func (c *BaselineCache) Get(key int64, measure func(key int64) float64) float64 {
	v, _ := c.cells.LoadOrStore(key, &baselineCell{})
	cell := v.(*baselineCell)
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if !cell.done {
		cell.val = measure(key)
		cell.done = true
	}
	return cell.val
}

// Warm measures the baselines of all distinct keys concurrently, so a
// batch dispatched to parallel workers neither duplicates missing
// baselines nor serializes behind one another (the core.Warmer
// pattern).
func (c *BaselineCache) Warm(keys []int64, measure func(key int64) float64) {
	uniq := make(map[int64]bool, len(keys))
	var wg sync.WaitGroup
	for _, k := range keys {
		if uniq[k] {
			continue
		}
		uniq[k] = true
		wg.Add(1)
		//avdlint:allow baseline warmers fan out over distinct cache keys; each engine stays single-goroutine
		go func(k int64) {
			defer wg.Done()
			c.Get(k, measure)
		}(k)
	}
	wg.Wait()
}
