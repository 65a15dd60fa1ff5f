package metrics

import (
	"slices"
	"testing"
	"time"
)

// TestLatencyPercentile pins PercentileInPlace's nearest rank at the edges
// — no samples, one sample, p = 0 and p = 100 — and that it leaves the
// buffer sorted.
func TestLatencyPercentile(t *testing.T) {
	ms := func(vals ...int) []time.Duration {
		out := make([]time.Duration, len(vals))
		for i, v := range vals {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	for _, tt := range []struct {
		name    string
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{"empty", nil, 99, 0},
		{"one sample", ms(7), 50, 7 * time.Millisecond},
		{"one sample p100", ms(7), 100, 7 * time.Millisecond},
		{"p0 is the minimum", ms(30, 10, 20), 0, 10 * time.Millisecond},
		{"p50", ms(40, 10, 30, 20), 50, 30 * time.Millisecond},
		{"p100 is the maximum", ms(30, 10, 20), 100, 30 * time.Millisecond},
	} {
		if got := PercentileInPlace(tt.samples, tt.p); got != tt.want {
			t.Errorf("%s: PercentileInPlace(%v, %v) = %v, want %v", tt.name, tt.samples, tt.p, got, tt.want)
		}
		if !slices.IsSorted(tt.samples) {
			t.Errorf("%s: samples left unsorted: %v", tt.name, tt.samples)
		}
	}
}
