package simnet

import (
	"testing"
	"time"

	"avd/internal/sim"
)

type recorder struct {
	msgs []any
	from []Addr
}

func (r *recorder) handler() Handler {
	return func(from Addr, payload any) {
		r.from = append(r.from, from)
		r.msgs = append(r.msgs, payload)
	}
}

func TestDeliveryWithLatency(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: 5 * time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())

	var deliveredAt sim.Time
	net.Handle(2, func(from Addr, payload any) {
		deliveredAt = eng.Now()
		rec.handler()(from, payload)
	})
	net.Send(1, 2, "hello")
	eng.Run()

	if len(rec.msgs) != 1 || rec.msgs[0] != "hello" || rec.from[0] != 1 {
		t.Fatalf("delivery = %v from %v", rec.msgs, rec.from)
	}
	if deliveredAt != sim.Time(5*time.Millisecond) {
		t.Errorf("delivered at %v, want 5ms", deliveredAt)
	}
}

func TestFIFOWithoutJitter(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	for i := 0; i < 20; i++ {
		net.Send(1, 2, i)
	}
	eng.Run()
	if len(rec.msgs) != 20 {
		t.Fatalf("delivered %d, want 20", len(rec.msgs))
	}
	for i, m := range rec.msgs {
		if m.(int) != i {
			t.Fatalf("no-jitter link reordered: %v", rec.msgs)
		}
	}
}

func TestDropRate(t *testing.T) {
	eng := sim.New(7)
	net := New(eng, Config{DropRate: 0.5})
	var rec recorder
	net.Handle(2, rec.handler())
	const total = 2000
	for i := 0; i < total; i++ {
		net.Send(1, 2, i)
	}
	eng.Run()
	got := len(rec.msgs)
	if got < total/3 || got > 2*total/3 {
		t.Errorf("delivered %d of %d at 50%% drop; outside sanity bounds", got, total)
	}
	st := net.Stats()
	if st.Sent != total || st.Delivered != uint64(got) || st.Dropped != uint64(total-got) {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestDropRateClamped(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{DropRate: 1.5})
	var rec recorder
	net.Handle(2, rec.handler())
	net.Send(1, 2, "x")
	eng.Run()
	if len(rec.msgs) != 0 {
		t.Error("DropRate > 1 should drop everything")
	}
}

func TestBlockAndUnblock(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	var rec recorder
	net.Handle(2, rec.handler())

	net.Block(1, 2)
	net.Send(1, 2, "blocked")
	eng.Run()
	if len(rec.msgs) != 0 {
		t.Fatal("blocked link delivered")
	}
	// Reverse direction still open.
	var rec1 recorder
	net.Handle(1, rec1.handler())
	net.Send(2, 1, "reverse")
	eng.Run()
	if len(rec1.msgs) != 1 {
		t.Fatal("reverse direction should flow")
	}
	net.Unblock(1, 2)
	net.Send(1, 2, "open")
	eng.Run()
	if len(rec.msgs) != 1 || rec.msgs[0] != "open" {
		t.Fatalf("unblocked link: %v", rec.msgs)
	}
	if net.Stats().Partitioned != 1 {
		t.Errorf("Partitioned = %d, want 1", net.Stats().Partitioned)
	}
}

// TestPartitionGroups: a two-group partition is a BlockPair per
// cross-group pair — traffic within a group flows, traffic across is
// counted as Partitioned — and UnblockPair heals it.
func TestPartitionGroups(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	recs := make([]recorder, 4)
	for i := range recs {
		net.Handle(Addr(i), recs[i].handler())
	}
	for _, a := range []Addr{0, 1} {
		for _, b := range []Addr{2, 3} {
			net.BlockPair(a, b)
		}
	}
	net.Send(0, 1, "same-group")
	net.Send(0, 2, "cross-group")
	net.Send(3, 1, "cross-group-2")
	net.Send(3, 2, "same-group-2")
	eng.Run()
	if len(recs[1].msgs) != 1 || len(recs[2].msgs) != 1 || recs[2].msgs[0] != "same-group-2" {
		t.Errorf("partition misrouted: %v %v", recs[1].msgs, recs[2].msgs)
	}
	if got := net.Stats().Partitioned; got != 2 {
		t.Errorf("Partitioned = %d, want 2", got)
	}
	net.UnblockPair(0, 2)
	net.Send(0, 2, "healed")
	net.Send(2, 0, "healed-back")
	eng.Run()
	if len(recs[2].msgs) != 2 || len(recs[0].msgs) != 1 {
		t.Error("healed pair did not deliver both ways")
	}
}

func TestInFlightMessagesLostAtPartition(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: 10 * time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.Send(1, 2, "in-flight")
	eng.Schedule(5*time.Millisecond, func() { net.Block(1, 2) })
	eng.Run()
	if len(rec.msgs) != 0 {
		t.Error("message in flight survived partition formed before delivery")
	}
}

func TestInterceptorMutatesAndDrops(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	var rec recorder
	net.Handle(2, rec.handler())
	net.AddInterceptor(InterceptorFunc(func(m *Message) Verdict {
		if m.Payload == "drop-me" {
			return VerdictDrop
		}
		if s, ok := m.Payload.(string); ok {
			m.Payload = s + "-mutated"
		}
		return VerdictDeliver
	}))
	net.Send(1, 2, "drop-me")
	net.Send(1, 2, "keep")
	eng.Run()
	if len(rec.msgs) != 1 || rec.msgs[0] != "keep-mutated" {
		t.Fatalf("interceptor results: %v", rec.msgs)
	}
	if net.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", net.Stats().Dropped)
	}
}

func TestInterceptorExtraDelayReorders(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.AddInterceptor(InterceptorFunc(func(m *Message) Verdict {
		if m.Payload == "slow" {
			m.ExtraDelay = 10 * time.Millisecond
		}
		return VerdictDeliver
	}))
	net.Send(1, 2, "slow")
	net.Send(1, 2, "fast")
	eng.Run()
	if len(rec.msgs) != 2 || rec.msgs[0] != "fast" || rec.msgs[1] != "slow" {
		t.Fatalf("delay did not reorder: %v", rec.msgs)
	}
}

func TestBroadcastSkipsSelf(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	recs := make([]recorder, 3)
	for i := range recs {
		net.Handle(Addr(i), recs[i].handler())
	}
	net.Broadcast(0, []Addr{0, 1, 2}, "all")
	eng.Run()
	if len(recs[0].msgs) != 0 {
		t.Error("broadcast delivered to sender")
	}
	if len(recs[1].msgs) != 1 || len(recs[2].msgs) != 1 {
		t.Error("broadcast missed a receiver")
	}
}

func TestUnknownDestinationCountsDropped(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{})
	net.Send(1, 99, "void")
	eng.Run()
	if net.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", net.Stats().Dropped)
	}
}

func TestLinkLatencyOverride(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var at sim.Time
	net.Handle(2, func(Addr, any) { at = eng.Now() })
	net.SetLinkLatency(1, 2, 20*time.Millisecond)
	net.Send(1, 2, "x")
	eng.Run()
	if at != sim.Time(20*time.Millisecond) {
		t.Errorf("delivered at %v, want 20ms", at)
	}
	net.SetLinkLatency(1, 2, -1) // remove override
	net.Send(1, 2, "y")
	prev := at
	eng.Run()
	if at.Sub(prev) != time.Millisecond {
		t.Errorf("override removal: delta %v, want 1ms", at.Sub(prev))
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.Send(1, 2, "pre-close")
	net.Close()
	net.Send(1, 2, "post-close")
	eng.Run()
	if len(rec.msgs) != 0 {
		t.Errorf("closed network delivered: %v", rec.msgs)
	}
}

func TestReordererScramblesStream(t *testing.T) {
	eng := sim.New(3)
	net := New(eng, Config{BaseLatency: time.Millisecond})
	var rec recorder
	net.Handle(2, rec.handler())
	net.AddInterceptor(NewReorderer(5, 0.5, 20*time.Millisecond))
	const total = 100
	for i := 0; i < total; i++ {
		net.Send(1, 2, i)
	}
	eng.Run()
	if len(rec.msgs) != total {
		t.Fatalf("reorderer lost messages: %d/%d", len(rec.msgs), total)
	}
	inversions := 0
	for i := 1; i < total; i++ {
		if rec.msgs[i].(int) < rec.msgs[i-1].(int) {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("reorderer produced a perfectly ordered stream")
	}
}

func TestReordererZeroIntensityIsNoop(t *testing.T) {
	r := NewReorderer(1, 0, 0)
	m := &Message{Payload: "x"}
	if r.Intercept(m) != VerdictDeliver || m.ExtraDelay != 0 {
		t.Error("zero-intensity reorderer modified traffic")
	}
}

func TestReordererFilter(t *testing.T) {
	r := NewReorderer(1, 1, 10*time.Millisecond)
	r.Filter = func(m *Message) bool { return m.To == 5 }
	skip := &Message{To: 4}
	r.Intercept(skip)
	if skip.ExtraDelay != 0 {
		t.Error("filtered-out message was delayed")
	}
	hit := &Message{To: 5}
	r.Intercept(hit)
	if hit.ExtraDelay == 0 {
		t.Error("matching message was not delayed at fraction 1.0")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []any {
		eng := sim.New(11)
		net := New(eng, Config{BaseLatency: time.Millisecond, Jitter: 5 * time.Millisecond, DropRate: 0.1})
		var rec recorder
		net.Handle(2, rec.handler())
		for i := 0; i < 200; i++ {
			net.Send(1, 2, i)
		}
		eng.Run()
		return rec.msgs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}
