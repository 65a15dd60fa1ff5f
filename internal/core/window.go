package core

import (
	"fmt"
	"time"

	"avd/internal/metrics"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/slab"
)

// Window is a deployment's measurement-window bookkeeping: completions
// and latencies count only while a window is open, a window cut short by
// the step budget or the window-memory ceiling degrades to Result.Hung,
// and requests still in flight at window end are censored into the
// latency average. A deployment embeds one, points its correct clients'
// completion callbacks at OnComplete, calls Reset from Restore and
// MeasureWindow from Measure.
type Window struct {
	// Name prefixes the error of a hung test ("cluster", "raftsim").
	Name string
	Eng  *sim.Engine
	// Mem is the deployment's message arena; its pool lends the latency
	// tail for the length of one window.
	Mem *slab.Arena

	measuring bool
	completed uint64
	latSum    time.Duration
	latN      uint64
	latTail   []time.Duration
}

// OnComplete observes one correct-client completion.
func (w *Window) OnComplete(seq uint64, latency time.Duration) {
	if !w.measuring {
		return
	}
	w.completed++
	w.latSum += latency
	w.latN++
	w.latTail = append(w.latTail, latency)
}

// Reset clears the counters when the deployment is rewound.
func (w *Window) Reset() {
	w.measuring = false
	w.completed = 0
	w.latSum, w.latN = 0, 0
}

// Completed returns the completions counted since the last Reset.
func (w *Window) Completed() uint64 { return w.completed }

// MeasureWindow runs one measurement window of the deployment w belongs
// to — at most stepBudget events when that is positive — and returns the
// window's throughput and latency as a Result, plus the P99 latency.
// clients are the correct clients whose stuck requests are censored.
func MeasureWindow[C interface{ Outstanding() (sim.Time, bool) }](w *Window, clients []C, sc scenario.Scenario, window time.Duration, stepBudget uint64) (Result, time.Duration) {
	w.latTail = slab.Borrow[time.Duration](w.Mem.Pool())

	w.measuring = true
	if stepBudget > 0 {
		w.Eng.SetStepBudget(stepBudget)
	}
	w.Eng.RunFor(window)
	hung := w.Eng.BudgetExceeded()
	if stepBudget > 0 {
		w.Eng.SetStepBudget(0)
	}
	// The arena stops the engine when the window's message memory runs
	// away; like the step budget, that ends dispatch but not the window.
	overflowed := w.Mem.Overflowed()
	if overflowed {
		w.Eng.Resume()
	}
	w.measuring = false

	// Censored latency: a request still stuck at window end (e.g. the
	// whole system crashed) contributes its elapsed wait, so that total
	// collapse shows up as high average latency rather than as a rosy
	// average over the few requests that did complete.
	end := w.Eng.Now()
	for _, c := range clients {
		if sentAt, ok := c.Outstanding(); ok {
			if waited := end.Sub(sentAt); waited > 0 {
				w.latSum += waited
				w.latN++
				w.latTail = append(w.latTail, waited)
			}
		}
	}

	res := Result{Scenario: sc}
	res.Throughput = float64(w.completed) / window.Seconds()
	if w.latN > 0 {
		res.AvgLatency = w.latSum / time.Duration(w.latN)
	}
	if hung {
		res.Hung = true
		res.Error = fmt.Sprintf("%s: scenario exceeded the %d-event step budget (runaway event storm)", w.Name, stepBudget)
	} else if overflowed {
		res.Hung = true
		res.Error = fmt.Sprintf("%s: scenario exceeded the %d MB window-memory ceiling (runaway allocation)", w.Name, slab.WindowCeiling>>20)
	}
	p99 := metrics.PercentileInPlace(w.latTail, 99)
	slab.Return(w.Mem.Pool(), w.latTail)
	w.latTail = nil
	return res, p99
}
