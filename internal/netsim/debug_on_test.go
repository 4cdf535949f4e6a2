//go:build simdebug

package netsim

import (
	"fmt"
	"strings"
	"testing"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// mustPanic runs f, which has to panic, and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic under -tags simdebug", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// Under the tag every entry into the fabric, and Release itself, refuses a
// packet that was released and not handed out again.
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

// Under the tag a packet is on at most one list. The link is the packet's
// own, so a second queue, pipe or free list would cut the first: the panic
// names the packet, the list it was being linked onto and the one holding it.
func TestPacketOnTwoListsPanics(t *testing.T) {
	e := sim.New()
	a, b := NewHost(1, "a"), NewHost(2, "b")
	Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
	names := func(msg string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not name %q", msg, w)
			}
		}
	}

	wire, lit := a.NewPacket(), &Packet{ID: 42, Kind: Data, Size: 1500}
	wire.Size = 1500
	a.Send(e, wire) // idle link: straight into the pipe
	a.Send(e, lit)  // waits behind it
	names(mustPanic(t, "re-Send of a queued literal", func() { a.Send(e, lit) }),
		"onto a queue band while on a queue band", lit.String())
	names(mustPanic(t, "re-Send of a packet on the wire", func() { a.Send(e, wire) }),
		"onto a queue band while on a pipe", wire.String())
	names(mustPanic(t, "Release of a packet still in a pipe", func() { a.Release(wire) }),
		"onto a free list while on a pipe", wire.String())

	// The refused links changed nothing: both arrive, in order, once.
	var got []*Packet
	b.Bind(0, EndpointFunc(func(_ *sim.Engine, p *Packet) { got = append(got, p) })) // both are flow 0
	e.Run()
	if len(got) != 2 || got[0] != wire || got[1] != lit {
		t.Fatalf("after the refused links %d packets arrived: %v", len(got), got)
	}
	// Off every list, the packet may go wherever it likes.
	b.Release(wire)
	a.Send(e, lit)
}
