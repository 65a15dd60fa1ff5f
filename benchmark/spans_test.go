package main

import (
	"math"
	"testing"
)

func TestSpanSelfTime(t *testing.T) {
	// root [0,100): a [10,40) with child b [15,25); a again [50,70).
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "a", Start: 10e9, End: 40e9},
		{ID: 3, Parent: 2, Name: "b", Start: 15e9, End: 25e9},
		{ID: 4, Parent: 1, Name: "a", Start: 50e9, End: 70e9},
	}
	for name, want := range map[string][2]float64{
		"root": {100, 50}, // minus both a spans; b is a's child, not root's
		"a":    {50, 40},
		"b":    {10, 10},
	} {
		if got := totalSeconds(spans, name); math.Abs(got-want[0]) > 1e-9 {
			t.Errorf("totalSeconds(%s) = %v, want %v", name, got, want[0])
		}
		if got := selfSeconds(spans, name); math.Abs(got-want[1]) > 1e-9 {
			t.Errorf("selfSeconds(%s) = %v, want %v", name, got, want[1])
		}
	}
	if got := durationsMS(spans, "a"); len(got) != 2 || got[0] != 30e3 || got[1] != 20e3 {
		t.Errorf("durationsMS(a) = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("t")
	tr.do("outer", func() {
		tr.do("inner", func() {})
		tr.do("inner", func() {})
	})
	tr.do("next", func() {})
	want := []struct {
		name   string
		parent int
	}{{"outer", 0}, {"inner", 1}, {"inner", 1}, {"next", 0}}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(want))
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.ID != i+1 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}

	// A nil tracer records nothing and still runs the body.
	var none *tracer
	ran := false
	none.do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer skipped the body")
	}
}
