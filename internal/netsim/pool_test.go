package netsim

import (
	"runtime"
	"testing"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// Recycling must be invisible: NewPacket issues the same IDs, and fully reset
// packets, whether or not released packets are being reused, and whether the
// pool was reserved (here for a third of the packets taken, so the host runs
// past its reservation) or not. IDs drive spraying and same-instant delivery
// order.
func TestNewPacketIDsIndependentOfRecycling(t *testing.T) {
	for _, reserve := range []int{0, 3 * packetChunk} {
		fresh, recycling := NewHost(7, "fresh"), NewHost(7, "recycling")
		recycling.pool.Reserve(reserve)
		reused := false
		seen := map[*Packet]bool{}
		for i := 0; i < 10*packetChunk; i++ {
			a, b := fresh.NewPacket(), recycling.NewPacket()
			reused = reused || seen[b]
			seen[b] = true
			want := Packet{ID: a.ID, Src: 7, pooled: true, gen: b.gen}
			if *b != want {
				t.Fatalf("reserved %d, packet %d: recycled NewPacket returned %+v, want %+v", reserve, i, *b, want)
			}
			b.Flow, b.Kind, b.Seq, b.Size, b.Trimmed, b.Hops = 9, Nack, 5, 1500, true, 3
			if i%3 != 0 {
				recycling.Release(b)
			}
		}
		if !reused {
			t.Fatalf("reserved %d: no released packet was ever handed out again", reserve)
		}
	}
}

// A reserved pool hands out its n packets without allocating, and the
// (n+1)th NewPacket grows it as an unreserved pool grows: by a chunk of
// min(packetChunk, issued) packets.
func TestReservedPacketsAllocateNothing(t *testing.T) {
	for _, n := range []int{1, reserveChunk, reserveChunk + 1, 26_673} {
		hosts := [2]*Host{NewHost(1, "warm-up"), NewHost(1, "measured")} // AllocsPerRun makes one warm-up call
		for _, h := range hosts {
			h.pool.Reserve(n)
		}
		next := 0
		runtime.GC()
		allocs := testing.AllocsPerRun(1, func() {
			h := hosts[next]
			next++
			for range n {
				h.NewPacket()
			}
		})
		h := hosts[1]
		if allocs != 0 || freeLen(h) != 0 {
			t.Errorf("Reserve(%d): taking %d packets made %.0f allocations and left %d free, want 0 and 0",
				n, n, allocs, freeLen(h))
		}
		h.NewPacket()
		if got, want := freeLen(h), min(packetChunk, n+1)-1; got != want {
			t.Errorf("Reserve(%d): packet %d left %d free, want a chunk of %d less the one taken", n, n+1, got, want+1)
		}
	}
}

// freeLen walks the free list of the host's pool.
func freeLen(h *Host) (n int) {
	for p := h.pool.free; p != nil; p = p.next {
		n++
	}
	return n
}

// A packet that did not come from NewPacket is never pooled (bench loops and
// tests reuse one literal across sends), and neither is one released twice.
func TestReleaseIgnoresForeignPackets(t *testing.T) {
	h := NewHost(1, "h")
	lit := &Packet{ID: 42, Kind: Data, Size: 1500}
	h.Release(lit)
	if freeLen(h) != 0 || lit.ID != 42 || lit.Size != 1500 {
		t.Fatalf("literal packet was pooled or touched: free=%d pkt=%+v", freeLen(h), *lit)
	}
	p := h.NewPacket()
	before := freeLen(h)
	h.Release(p)
	if freeLen(h) != before+1 {
		t.Fatalf("released packet not pooled: free %d -> %d", before, freeLen(h))
	}
	if !debugPool { // under simdebug the second release panics instead
		h.Release(p)
		if freeLen(h) != before+1 {
			t.Fatal("a packet released twice sits on the free list twice")
		}
	}
}

// One hop of the fabric — Host.Send, serialization, delivery, an endpoint that
// releases — allocates nothing once the pools are warm.
func TestHopSteadyStateAllocs(t *testing.T) {
	e := sim.New()
	var pool PacketPool
	a, b := new(Host), new(Host)
	a.Init(1, Literal("a"), &pool)
	b.Init(2, Literal("b"), &pool)
	Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
	// The hosts share one pool, as a fabric's do, and the receiver answers
	// each data packet with an ACK from it, as a transport receiver does, so
	// the pool stays balanced.
	b.Bind(1, EndpointFunc(func(e *sim.Engine, p *Packet) {
		r := b.NewPacket()
		r.Flow, r.Kind, r.Size, r.Dst = 1, Ack, ControlSize, a.ID()
		b.Release(p)
		b.Send(e, r)
	}))
	a.Bind(1, EndpointFunc(func(_ *sim.Engine, p *Packet) { a.Release(p) }))
	roundTrip := func() {
		p := a.NewPacket()
		p.Flow, p.Kind, p.Size, p.Dst = 1, Data, 1500, b.ID()
		a.Send(e, p)
		e.Run()
	}
	roundTrip()
	// One measured call of 100 round trips: AllocsPerRun truncates its
	// average, so a per-call count is the exact one.
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			roundTrip()
		}
	})
	if total != 0 {
		t.Fatalf("100 warm send -> delivery -> release round trips allocate %.0f times, want 0", total)
	}
}
