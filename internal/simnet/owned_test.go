package simnet

import (
	"testing"
	"time"

	"avd/internal/faultinject"
	"avd/internal/sim"
	"avd/internal/slab"
)

// cell is the payload of the ownership table: carved from a slab, counted
// like a protocol message, and filled with 0xA5 the moment the last
// holder puts it back (slab.SetPoison).
type cell struct {
	v       uint64
	holders slab.Holders
}

const (
	cellValue    = 42
	cellPoisoned = 0xA5A5A5A5A5A5A5A5
)

// ownedFixture is a network with two receiving nodes whose Owner counts
// the holds given back and puts a cell back at the last, and whose
// handlers check that what they read is still the sender's value.
type ownedFixture struct {
	eng       *sim.Engine
	net       *Network
	mem       *slab.Arena
	cells     *slab.Slab[cell]
	delivered int
	dropped   int // holds given back
	released  int // cells put back
}

func (f *ownedFixture) Hold(p any) { f.mem.Hold(&p.(*cell).holders) }

func (f *ownedFixture) Release(p any) {
	f.dropped++
	if c := p.(*cell); f.mem.Drop(&c.holders) {
		f.released++
		f.cells.Put(c)
	}
}

func newOwnedFixture(t *testing.T, cfg Config) *ownedFixture {
	f := &ownedFixture{eng: sim.New(1), mem: slab.NewArena(nil, nil)}
	f.cells = slab.New[cell](f.mem)
	f.net = New(f.eng, cfg)
	f.net.SetOwner(f)
	for _, to := range []Addr{2, 3} {
		f.net.Handle(to, func(_ Addr, p any) {
			f.delivered++
			if f.released != 0 {
				t.Errorf("released %d payloads before the handler ran", f.released)
			}
			if got := p.(*cell).v; got != cellValue {
				t.Errorf("handler read %#x, want %d", got, cellValue)
			}
		})
	}
	return f
}

// send sends a fresh cell to node 2; an owned one counts its delivery.
func (f *ownedFixture) send(owned bool) *cell {
	c := f.cells.Get()
	*c = cell{v: cellValue}
	if owned {
		f.mem.Share(&c.holders, 1)
		f.net.SendOwned(1, 2, c)
	} else {
		f.net.Send(1, 2, c)
	}
	return c
}

// sendAndRun sends one payload and runs the engine dry.
func (f *ownedFixture) sendAndRun(owned bool) *cell {
	c := f.send(owned)
	f.eng.Run()
	return c
}

// TestOwnedPayloadRelease is the ownership table: every owned delivery
// gives its hold back when its handler has returned, in no other case,
// and the payload is put back after the last of them.
func TestOwnedPayloadRelease(t *testing.T) {
	slab.SetPoison(true)
	defer slab.SetPoison(false)
	lat := Config{BaseLatency: time.Millisecond}
	dropAll := InterceptorFunc(func(*Message) Verdict { return VerdictDrop })
	cases := []struct {
		name string
		cfg  Config
		// run sends one payload, drives the engine and returns the payload:
		// only a released one reads as poison afterwards.
		run                          func(f *ownedFixture) *cell
		delivered, dropped, released int
		wantPoison                   bool
	}{
		{name: "owned, delivered once", cfg: lat, delivered: 1, dropped: 1, released: 1, wantPoison: true,
			run: func(f *ownedFixture) *cell { return f.sendAndRun(true) }},
		{name: "plain Send", cfg: lat, delivered: 1,
			run: func(f *ownedFixture) *cell { return f.sendAndRun(false) }},
		// The duplicate adds a holder: the first delivery's drop leaves one,
		// and the second puts the payload back.
		{name: "dup armed on the link", cfg: lat, delivered: 2, dropped: 2, released: 1, wantPoison: true,
			run: func(f *ownedFixture) *cell {
				f.net.ArmLinkFaults(1, 2, faultinject.NewPlan(dupEvery(1, 0)), nil)
				return f.sendAndRun(true)
			}},
		{name: "dup of a plain Send", cfg: lat, delivered: 2,
			run: func(f *ownedFixture) *cell {
				f.net.ArmLinkFaults(1, 2, faultinject.NewPlan(dupEvery(1, 0)), nil)
				return f.sendAndRun(false)
			}},
		{name: "BroadcastOwned, one hold per recipient", cfg: lat, delivered: 2, dropped: 2, released: 1, wantPoison: true,
			run: func(f *ownedFixture) *cell {
				c := f.cells.Get()
				*c = cell{v: cellValue}
				f.mem.Share(&c.holders, 2)
				f.net.BroadcastOwned(1, []Addr{1, 2, 3}, c)
				f.eng.Run()
				return c
			}},
		{name: "corrupter swaps the payload", cfg: lat, delivered: 1,
			run: func(f *ownedFixture) *cell {
				f.net.ArmLinkFaults(1, 2, faultinject.NewPlan(corruptEvery(1)),
					func(_, _ Addr, p any) any { c := *p.(*cell); c.holders = slab.Holders{}; return &c })
				return f.sendAndRun(true)
			}},
		// A corrupter may garble in place what only the delivery holds: the
		// delivery still owns it.
		{name: "corrupter garbles its sole holder in place", cfg: lat, delivered: 1, dropped: 1, released: 1, wantPoison: true,
			run: func(f *ownedFixture) *cell {
				f.net.ArmLinkFaults(1, 2, faultinject.NewPlan(corruptEvery(1)),
					func(_, _ Addr, p any) any {
						if !f.mem.Sole(&p.(*cell).holders) {
							t.Error("a fresh owned payload is not its delivery's alone")
						}
						return p
					})
				return f.sendAndRun(true)
			}},
		{name: "interceptor swaps the payload", cfg: lat, delivered: 1,
			run: func(f *ownedFixture) *cell {
				f.net.AddInterceptor(InterceptorFunc(func(m *Message) Verdict {
					c := *m.Payload.(*cell)
					m.Payload = &c
					return VerdictDeliver
				}))
				return f.sendAndRun(true)
			}},
		{name: "interceptor drop", cfg: lat,
			run: func(f *ownedFixture) *cell {
				f.net.AddInterceptor(dropAll)
				return f.sendAndRun(true)
			}},
		{name: "DropRate 1", cfg: Config{BaseLatency: time.Millisecond, DropRate: 1},
			run: func(f *ownedFixture) *cell { return f.sendAndRun(true) }},
		{name: "partition at send", cfg: lat,
			run: func(f *ownedFixture) *cell {
				f.net.Block(1, 2)
				return f.sendAndRun(true)
			}},
		{name: "partition at delivery", cfg: lat,
			run: func(f *ownedFixture) *cell {
				c := f.send(true)
				f.net.Block(1, 2)
				f.eng.Run()
				return c
			}},
		{name: "no handler", cfg: lat,
			run: func(f *ownedFixture) *cell {
				f.net.Handle(2, nil)
				return f.sendAndRun(true)
			}},
		{name: "Close", cfg: lat,
			run: func(f *ownedFixture) *cell {
				c := f.send(true)
				f.net.Close()
				f.eng.Run()
				return c
			}},
		// In flight at the snapshot: the live delivery and every restore's
		// copy of it deliver the same payload, so none of them may release it.
		{name: "in flight at Snapshot, live and two restores", cfg: lat, delivered: 3,
			run: func(f *ownedFixture) *cell {
				c := f.send(true)
				snap := f.eng.Snapshot()
				f.eng.Run()
				for i := 0; i < 2; i++ {
					f.eng.Restore(snap)
					f.eng.Run()
				}
				return c
			}},
		// Snapshot clears the owned bit of both copies of what is in flight,
		// and of nothing else: a payload sent after it is owned as ever.
		{name: "Snapshot clears the owned bit of the live and the captured delivery", cfg: lat, delivered: 3, dropped: 1, released: 1,
			run: func(f *ownedFixture) *cell {
				c := f.send(true)
				snap := f.eng.Snapshot()
				f.eng.Run()
				f.eng.Restore(snap)
				f.eng.Run()
				f.sendAndRun(true)
				return c
			}},
		// Sent after the snapshot and discarded by Restore: the engine drops
		// the delivery, and the deployment has rewound the sender's memory.
		{name: "discarded by Restore", cfg: lat,
			run: func(f *ownedFixture) *cell {
				snap := f.eng.Snapshot()
				c := f.send(true)
				f.eng.Restore(snap)
				f.eng.Run()
				return c
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newOwnedFixture(t, tc.cfg)
			c := tc.run(f)
			if f.delivered != tc.delivered || f.dropped != tc.dropped || f.released != tc.released {
				t.Errorf("delivered %d, %d holds given back, %d released; want %d, %d and %d",
					f.delivered, f.dropped, f.released, tc.delivered, tc.dropped, tc.released)
			}
			want := uint64(cellValue)
			if tc.wantPoison {
				want = cellPoisoned
			}
			if c.v != want {
				t.Errorf("payload reads %#x afterwards, want %#x", c.v, want)
			}
		})
	}
}
