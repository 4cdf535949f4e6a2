//go:build simdebug

package netsim

import (
	"testing"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic under -tags simdebug", what)
		}
	}()
	f()
}

// Under the tag every entry into the fabric, every arrival off a link, and
// Release itself, refuses a packet that was released and not handed out again.
func TestUseAfterReleasePanics(t *testing.T) {
	e := sim.New()
	a, b := NewHost(1, "a"), NewHost(2, "b")
	Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
	sw := NewSwitch(3, "sw", nil, false)

	p := a.NewPacket()
	a.Release(p)
	mustPanic(t, "double Release", func() { a.Release(p) })
	mustPanic(t, "Port.Send of a released packet", func() { a.Send(e, p) })
	mustPanic(t, "Host.Receive of a released packet", func() { b.Receive(e, p, nil) })
	mustPanic(t, "Switch.Receive of a released packet", func() { sw.Receive(e, p, nil) })

	// A packet on the wire belongs to the link: releasing it there is caught
	// when it arrives.
	p = a.NewPacket()
	p.Dst = b.ID()
	a.Send(e, p)
	a.Release(p)
	mustPanic(t, "arrival of a packet released in flight", func() { e.Run() })

	// Handing the packet out again makes it live.
	q := a.NewPacket()
	if q != p {
		t.Fatalf("released packet was not the next one handed out")
	}
	q.Dst = b.ID()
	a.Send(e, q)
	e.Run()
	if b.Unclaimed != 1 {
		t.Fatalf("reissued packet was not delivered: unclaimed = %d", b.Unclaimed)
	}
}
