package proxy

import (
	"testing"
	"unsafe"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// A streamlined endpoint is one slab slot per proxied flow (Streamlined.Init),
// so its size is every flow's: 88 B, with its rng.Source one word.
func TestStreamlinedStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(Streamlined{}); got > 88 {
		t.Fatalf("Streamlined is %d bytes, want <= 88", got)
	}
}

// The streamlined proxy's per-packet path — processing-delay event, then
// forward or NACK — allocates nothing once the pools are warm: the delay is
// scheduled as (proxy, packet), a forwarded packet passes on, and the NACK
// reuses the trimmed header the proxy just released.
func TestStreamlinedSteadyStateAllocs(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	p := NewStreamlined(c.prx, 1, c.snd.ID(), c.rcv.ID(), rng.Constant{D: 420 * units.Nanosecond}, nil)
	c.prx.Bind(1, p)
	// Close the loop as a transport does, so every host's pool is balanced:
	// the receiver answers a data packet with an ACK from its own pool, the
	// proxy relays it, the sender consumes it.
	c.rcv.Bind(1, netsim.EndpointFunc(func(e *sim.Engine, pkt *netsim.Packet) {
		ack := c.rcv.NewPacket()
		ack.Flow, ack.Kind, ack.Seq = 1, netsim.Ack, pkt.Seq
		ack.Size, ack.FullSize, ack.Dst = netsim.ControlSize, netsim.ControlSize, c.prx.ID()
		c.rcv.Release(pkt)
		c.rcv.Send(e, ack)
	}))
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, pkt *netsim.Packet) { c.snd.Release(pkt) }))

	send := func(trimmed bool) func() {
		return func() {
			pkt := c.snd.NewPacket()
			pkt.Flow, pkt.Kind, pkt.Seq = 1, netsim.Data, 3
			pkt.Size, pkt.FullSize = 1500, 1500
			pkt.Dst, pkt.FinalDst = c.prx.ID(), c.rcv.ID()
			if trimmed {
				pkt.Trim()
			}
			c.snd.Send(c.e, pkt)
			c.e.Run()
		}
	}
	for _, tc := range []struct {
		name    string
		trimmed bool
		count   *uint64
	}{
		{"forward", false, &p.Stats.DataForwarded},
		{"trimmed -> NACK", true, &p.Stats.NacksSent},
	} {
		run := send(tc.trimmed)
		run()
		before := *tc.count
		// One measured call of 100 packets: AllocsPerRun truncates its
		// average, so a per-call count is the exact one.
		total := testing.AllocsPerRun(1, func() {
			for i := 0; i < 50; i++ {
				run()
			}
		})
		if *tc.count-before != 100 {
			t.Fatalf("%s: proxy handled %d packets, want 100", tc.name, *tc.count-before)
		}
		if total != 0 {
			t.Fatalf("%s: %.0f allocations over 50 packets, want 0", tc.name, total)
		}
	}
}
