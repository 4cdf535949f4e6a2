package netsim

import (
	"testing"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

func TestHostSetDownDropsBothDirections(t *testing.T) {
	e := sim.New()
	h := NewHost(1, "h")
	peer := &sinkNode{id: 2}
	_, pb := Connect(h, peer, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)

	got := 0
	h.Bind(0, EndpointFunc(func(*sim.Engine, *Packet) { got++ })) // dataPkt's flow

	h.SetDown(true)
	if !h.Down() {
		t.Fatal("Down() should report crash")
	}
	// Inbound packets vanish.
	pb.Send(e, dataPkt(1, 1500))
	e.Run()
	if got != 0 {
		t.Fatal("crashed host received a packet")
	}
	// Outbound sends are swallowed.
	h.Send(e, dataPkt(2, 1500))
	e.Run()
	if len(peer.arrived) != 0 {
		t.Fatal("crashed host transmitted a packet")
	}
	if h.DroppedDown != 2 {
		t.Fatalf("DroppedDown = %d, want 2", h.DroppedDown)
	}

	// Restart: traffic flows again and bindings survive.
	h.SetDown(false)
	pb.Send(e, dataPkt(3, 1500))
	h.Send(e, dataPkt(4, 1500))
	e.Run()
	if got != 1 || len(peer.arrived) != 1 {
		t.Fatalf("restarted host: got=%d sent=%d", got, len(peer.arrived))
	}
}

// A host crash refuses what its host sends after it and recalls nothing: the
// packet being serialized, the packets queued behind it and the packets on the
// wire were all admitted before the crash, and all arrive when they would have.
func TestPacketsInFlightSurviveCut(t *testing.T) {
	const tx = 120 * units.Nanosecond // 1500 B at 100 Gb/s
	for _, tc := range []struct {
		name  string
		cutAt units.Duration
	}{
		{"mid-serialization", tx / 2},
		{"mid-flight", 3*tx + 500*units.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			a := NewHost(1, "a")
			b := &sinkNode{id: 2}
			Connect(a, b, 100*units.Gbps, units.Millisecond, QueueConfig{}, QueueConfig{}, nil)
			for id := uint64(1); id <= 3; id++ {
				a.Send(e, dataPkt(id, 1500)) // one in service, two queued
			}
			e.Schedule(units.Time(tc.cutAt), func(e *sim.Engine) {
				a.SetDown(true)
				a.Send(e, dataPkt(4, 1500))
			})
			e.Run()
			if a.DroppedDown != 1 {
				t.Fatalf("drops = %d, want 1: only the packet sent after the crash", a.DroppedDown)
			}
			if len(b.arrived) != 3 {
				t.Fatalf("%d packets arrived, want the 3 admitted before the crash", len(b.arrived))
			}
			for i, p := range b.arrived {
				want := units.Time(units.Duration(i+1)*tx + units.Millisecond)
				if p.ID != uint64(i+1) || b.times[i] != want {
					t.Fatalf("arrival %d: packet %d at %v, want packet %d at %v", i, p.ID, b.times[i], i+1, want)
				}
			}
		})
	}
}
