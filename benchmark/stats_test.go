package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// estimator the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{36.9, 35.9, 35.8, 36.5, 36.7}, [3]float64{35.85, 36.5, 36.8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailPercent(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 0}, {19, 0}, {20, 50}, {80, 87}, {100, 90}, {140, 92}, {200, 95}, {400, 97}, {1000, 99}, {100000, 99},
	} {
		got := tailPercent(c.n)
		if got != c.want {
			t.Errorf("tailPercent(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			if beyond := c.n - int(percentile(xs, got)); beyond < 10 {
				t.Errorf("n=%d: p%d leaves %d samples beyond it, want >= 10", c.n, got, beyond)
			}
			if got < 99 {
				if beyond := c.n - int(percentile(xs, got+1)); beyond >= 10 {
					t.Errorf("n=%d: p%d would still leave %d samples beyond it", c.n, got+1, beyond)
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for p, want := range map[int]float64{0: 10, 20: 10, 21: 20, 50: 30, 90: 50, 100: 50} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%d) = %v, want %v", p, got, want)
		}
	}
}

// A sample too small for any tail reports none, not its minimum.
func TestTailOf(t *testing.T) {
	if pct, v := tailOf([]float64{5, 3, 4}); pct != 0 || v != 0 {
		t.Errorf("tailOf(3 samples) = p%d %v, want no tail", pct, v)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tailOf(xs); pct != 90 || v != 90 {
		t.Errorf("tailOf(1..100) = p%d %v, want p90 90", pct, v)
	}
}
