package core

import (
	"fmt"
	"time"

	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Rig is the deployment lifecycle every target shares (DESIGN.md §14): the
// engine, network, oracle and message arena a deployment runs on, the
// capture every run restores from, park, and the measurement window's
// bookkeeping. A deployment embeds one, so Capture and Restore are the
// Rig's. It registers its protocol state with Keep and whatever else park
// hands back with OnPark, points its correct clients' completion
// callbacks at OnComplete, and measures with MeasureWindow and Finish.
type Rig struct {
	Eng *sim.Engine
	Net *simnet.Network
	// Oracle is the reference model every protocol event goes through; it
	// rewinds with the capture, so forked verdicts and digests equal cold
	// ones.
	Oracle *oracle.Model
	// Mem is the message arena the deployment carves from: the warm-up's
	// objects are heap objects, park hands the window's chunks back to the
	// pool (DESIGN.md §20), and the pool lends the latency samples of a
	// window that keeps them.
	Mem *slab.Arena

	name  string // prefixes the error of a hung test
	keeps []func() func()
	parks []func()

	// The capture: engine, network and oracle, and the restore of every
	// kept part.
	eng      *sim.Snapshot
	net      *simnet.NetSnapshot
	oracle   oracle.State
	restores []func()

	// The window: completions and latencies count only while it is open,
	// and each latency is kept for the P99 only when sampling.
	measuring bool
	sampling  bool
	completed uint64
	latSum    time.Duration
	latN      uint64
	latTail   []time.Duration
}

// NewRig returns a rig on a fresh engine seeded with seed, a network
// configured by cfg, an arena leasing from pool, and an oracle naming its
// invariants "<prefix>/…".
func NewRig(name string, pool *slab.Pool, seed int64, cfg simnet.Config, prefix string) *Rig {
	r := &Rig{name: name, Eng: sim.New(seed), Oracle: oracle.New(pool, prefix)}
	r.Eng.SetPool(pool)
	r.Net = simnet.New(r.Eng, cfg)
	r.Mem = slab.NewArena(pool, r.Eng.Stop)
	return r
}

// Keep registers protocol state with the capture: Capture calls capture,
// and every Restore calls the restore it returned, which also disarms
// whatever a run armed on that part.
func (r *Rig) Keep(capture func() (restore func())) { r.keeps = append(r.keeps, capture) }

// OnPark registers what park hands back besides the window's memory and
// the oracle's tables.
func (r *Rig) OnPark(fn func()) { r.parks = append(r.parks, fn) }

// Capture implements Deployment. What the warm-up borrowed goes back at
// once — the engine's train stock, whatever OnPark registered and the
// oracle's table, right after the clones — and the arena stocks the
// warm-up's freed objects: a captured master may park before its first
// run (Harness.Prepare), and the next master's warm-up grows in the same
// memory.
func (r *Rig) Capture() {
	r.eng, r.net, r.oracle = r.Eng.Snapshot(), r.Net.Snapshot(), r.Oracle.Snapshot()
	r.Eng.Park()
	for _, capture := range r.keeps {
		r.restores = append(r.restores, capture())
	}
	for _, fn := range r.parks {
		fn()
	}
	r.Oracle.Park()
	r.Mem.Capture()
}

// Restore implements Deployment.
func (r *Rig) Restore() {
	r.park()
	r.Eng.Restore(r.eng)
	r.Net.Restore(r.net)
	r.Oracle.Restore(r.oracle) // also ends a trace
	for _, restore := range r.restores {
		restore()
	}
	r.measuring, r.sampling, r.completed, r.latSum, r.latN = false, false, 0, 0, 0
}

// park ends a run: the window's message memory, the engine's delivery
// trains, what OnPark registered and the oracle's tables go back to the
// pool, so a parked master retains only what its capture references and
// the next fork — of this master or any other — carves the same chunks and
// takes the same trains. Nothing reads the window's objects afterwards:
// the result is already extracted, and Restore overwrites every pointer to
// them. park is idempotent, and only Restore may follow it.
func (r *Rig) park() {
	r.Mem.Rewind()
	r.Eng.Park()
	for _, fn := range r.parks {
		fn()
	}
	r.Oracle.Park()
}

// Trace implements Deployment: the oracle records the next window's
// events into rec, until the next Restore.
func (r *Rig) Trace(rec *oracle.Recorder) { r.Oracle.Trace(rec) }

// KeepLatencies implements Deployment: the next window keeps every latency
// sample, until the next Restore.
func (r *Rig) KeepLatencies() { r.sampling = true }

// Finish ends Measure: it sets the result's coverage digest and oracle
// verdicts, then parks.
func (r *Rig) Finish(res *Result) {
	res.Violations, res.Coverage = r.Oracle.Finish()
	r.park()
}

// OnComplete observes one correct-client completion.
func (r *Rig) OnComplete(seq uint64, latency time.Duration) {
	if !r.measuring {
		return
	}
	r.completed++
	r.latSum += latency
	r.latN++
	if r.sampling {
		r.latTail = append(r.latTail, latency)
	}
}

// Completed returns the completions counted since the last Restore.
func (r *Rig) Completed() uint64 { return r.completed }

// MeasureWindow runs one measurement window of the rig — at most
// stepBudget events when that is positive — and returns the window's
// throughput and latency as a Result, plus the P99 latency, which is 0
// unless KeepLatencies asked for the samples. A window cut
// short by the step budget or the window-memory ceiling degrades to
// Result.Hung. clients are the correct clients whose requests still in
// flight at window end are censored into the latency average.
func MeasureWindow[C interface{ Outstanding() (sim.Time, bool) }](r *Rig, clients []C, sc scenario.Scenario, window time.Duration, stepBudget uint64) (Result, time.Duration) {
	if r.sampling {
		r.latTail = slab.Borrow[time.Duration](r.Mem.Pool())
	}
	r.measuring = true
	if stepBudget > 0 {
		r.Eng.SetStepBudget(stepBudget)
	}
	r.Eng.RunFor(window)
	hung := r.Eng.BudgetExceeded()
	if stepBudget > 0 {
		r.Eng.SetStepBudget(0)
	}
	// The arena stops the engine when the window's message memory runs
	// away; like the step budget, that ends dispatch but not the window.
	overflowed := r.Mem.Overflowed()
	if overflowed {
		r.Eng.Resume()
	}
	r.measuring = false

	// Censored latency: a request still stuck at window end (e.g. the
	// whole system crashed) contributes its elapsed wait, so that total
	// collapse shows up as high average latency rather than as a rosy
	// average over the few requests that did complete.
	end := r.Eng.Now()
	for _, c := range clients {
		if sentAt, ok := c.Outstanding(); ok {
			if waited := end.Sub(sentAt); waited > 0 {
				r.latSum += waited
				r.latN++
				if r.sampling {
					r.latTail = append(r.latTail, waited)
				}
			}
		}
	}

	res := Result{Scenario: sc}
	res.Throughput = float64(r.completed) / window.Seconds()
	if r.latN > 0 {
		res.AvgLatency = r.latSum / time.Duration(r.latN)
	}
	if hung {
		res.Hung = true
		res.Error = fmt.Sprintf("%s: scenario exceeded the %d-event step budget (runaway event storm)", r.name, stepBudget)
	} else if overflowed {
		res.Hung = true
		res.Error = fmt.Sprintf("%s: scenario exceeded the %d MB window-memory ceiling (runaway allocation)", r.name, slab.WindowCeiling>>20)
	}
	var p99 time.Duration
	if r.sampling {
		p99 = metrics.PercentileInPlace(r.latTail, 99)
		slab.Return(r.Mem.Pool(), r.latTail)
		r.latTail = nil
	}
	return res, p99
}
