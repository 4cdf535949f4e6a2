package proxy

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// chain wires sender -- proxy -- receiver hosts in a line so unit tests can
// exercise proxy endpoints without a full fabric. A middle switch routes by
// host ID.
type chain struct {
	e             *sim.Engine
	snd, prx, rcv *netsim.Host
}

func newChain(t testing.TB, q netsim.QueueConfig) *chain {
	t.Helper()
	e := sim.New()
	snd := netsim.NewHost(1, "snd")
	prx := netsim.NewHost(2, "prx")
	rcv := netsim.NewHost(3, "rcv")
	sw := netsim.NewSwitch(10, "sw", rng.New(5), false)
	rate := 10 * units.Gbps
	_, swToSnd := netsim.Connect(snd, sw, rate, 5*units.Microsecond, q, q, rng.New(1))
	swToPrx, _ := netsim.Connect(sw, prx, rate, 5*units.Microsecond, q, q, rng.New(2))
	swToRcv, _ := netsim.Connect(sw, rcv, rate, units.Millisecond, q, q, rng.New(3))
	sw.AddRoute(snd.ID(), swToSnd)
	sw.AddRoute(prx.ID(), swToPrx)
	sw.AddRoute(rcv.ID(), swToRcv)
	return &chain{e: e, snd: snd, prx: prx, rcv: rcv}
}

func TestStreamlinedForwardsDataToReceiver(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	p := NewStreamlined(c.prx, 1, c.snd.ID(), c.rcv.ID(), nil, nil)
	c.prx.Bind(1, p)
	var got *netsim.Packet
	c.rcv.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, pkt *netsim.Packet) { got = pkt }))

	pkt := c.snd.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Seq = 3
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Dst = c.prx.ID()
	pkt.FinalDst = c.rcv.ID()
	c.snd.Send(c.e, pkt)
	c.e.Run()

	if got == nil {
		t.Fatal("data not forwarded to receiver")
	}
	if got.Src != c.snd.ID() {
		t.Fatal("proxy must preserve the original source")
	}
	if p.Stats.DataForwarded != 1 {
		t.Fatalf("DataForwarded = %d", p.Stats.DataForwarded)
	}
}

func TestStreamlinedNacksTrimmedHeaders(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	p := NewStreamlined(c.prx, 1, c.snd.ID(), c.rcv.ID(), nil, nil)
	c.prx.Bind(1, p)
	var nack *netsim.Packet
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, pkt *netsim.Packet) { nack = pkt }))
	forwarded := false
	c.rcv.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, pkt *netsim.Packet) { forwarded = true }))

	pkt := c.snd.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Seq = 9
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Dst = c.prx.ID()
	pkt.FinalDst = c.rcv.ID()
	pkt.Trim()
	c.snd.Send(c.e, pkt)
	c.e.Run()

	if forwarded {
		t.Fatal("trimmed header must not cross the long-haul link")
	}
	if nack == nil || nack.Kind != netsim.Nack || nack.Seq != 9 {
		t.Fatalf("expected NACK for seq 9, got %v", nack)
	}
	if p.Stats.NacksSent != 1 {
		t.Fatalf("NacksSent = %d", p.Stats.NacksSent)
	}
}

func TestStreamlinedRelaysAcksToSender(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	p := NewStreamlined(c.prx, 1, c.snd.ID(), c.rcv.ID(), nil, nil)
	c.prx.Bind(1, p)
	var ack *netsim.Packet
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, pkt *netsim.Packet) { ack = pkt }))

	a := c.rcv.NewPacket()
	a.Flow = 1
	a.Kind = netsim.Ack
	a.Seq = 4
	a.Size = netsim.ControlSize
	a.EchoECN = true
	a.Dst = c.prx.ID()
	a.FinalDst = c.snd.ID()
	c.rcv.Send(c.e, a)
	c.e.Run()

	if ack == nil || ack.Kind != netsim.Ack || !ack.EchoECN {
		t.Fatalf("ack not relayed intact: %v", ack)
	}
	if p.Stats.AcksRelayed != 1 {
		t.Fatalf("AcksRelayed = %d", p.Stats.AcksRelayed)
	}
}

func TestStreamlinedProcessingDelayApplied(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	const d = 10 * units.Microsecond
	p := NewStreamlined(c.prx, 1, c.snd.ID(), c.rcv.ID(), rng.Constant{D: d}, rng.New(1))
	c.prx.Bind(1, p)
	var at units.Time
	c.rcv.Bind(1, netsim.EndpointFunc(func(e *sim.Engine, _ *netsim.Packet) { at = e.Now() }))

	pkt := c.snd.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Dst = c.prx.ID()
	pkt.FinalDst = c.rcv.ID()
	c.snd.Send(c.e, pkt)
	c.e.Run()

	// Without the proxy delay the arrival would be exactly serialization
	// + propagation on both legs; the extra 10us must show up.
	base := 2*(1200*units.Nanosecond) + 5*units.Microsecond + 5*units.Microsecond + // snd->sw->prx
		2*(1200*units.Nanosecond) + 5*units.Microsecond + units.Millisecond // prx->sw->rcv
	if at < units.Time(base+d) {
		t.Fatalf("arrival %v too early; proc delay not applied (base %v)", at, base)
	}
}

func TestNaiveRelaysEndToEnd(t *testing.T) {
	c := newChain(t, netsim.QueueConfig{})
	total := 150 * units.KB

	var doneAt units.Time
	relay := NewNaive(c.prx, 1, 2, c.snd.ID(), c.rcv.ID(), total, transport.Config{
		InitWindow:  units.MB,
		ExpectedRTT: 2 * units.Millisecond,
	})
	rcv := transport.NewReceiver(c.rcv, 2, c.prx.ID(), total, func(at units.Time) { doneAt = at })
	c.rcv.Bind(2, rcv)
	snd := transport.NewSender(c.snd, 1, c.prx.ID(), 0, total,
		transport.Config{InitWindow: 256 * units.KB, ExpectedRTT: 20 * units.Microsecond}, nil)
	c.snd.Bind(1, snd)

	relay.Start(c.e)
	snd.Start(c.e)
	c.e.RunUntil(units.Time(10 * units.Second))

	if !rcv.Done() {
		t.Fatalf("naive relay incomplete: %v of %v delivered", rcv.Bytes(), total)
	}
	if rcv.Bytes() != total {
		t.Fatalf("delivered %v, want %v", rcv.Bytes(), total)
	}
	if doneAt == 0 {
		t.Fatal("completion not signalled")
	}
	if relay.Up.Bytes() != total {
		t.Fatalf("relayed %v, want %v", relay.Up.Bytes(), total)
	}
	if !snd.Done() {
		t.Fatal("upstream leg should complete")
	}
	if !relay.Down.Done() {
		t.Fatal("downstream leg should complete")
	}
}

func TestNaiveTracksRelayQueueHighWatermark(t *testing.T) {
	// Fast upstream, slow downstream start: the relay queue must build.
	c := newChain(t, netsim.QueueConfig{})
	total := 150 * units.KB
	relay := NewNaive(c.prx, 1, 2, c.snd.ID(), c.rcv.ID(), total, transport.Config{
		InitWindow:  1500, // 1 packet per downstream RTT (~2ms)
		ExpectedRTT: 2 * units.Millisecond,
	})
	rcv := transport.NewReceiver(c.rcv, 2, c.prx.ID(), total, nil)
	c.rcv.Bind(2, rcv)
	snd := transport.NewSender(c.snd, 1, c.prx.ID(), 0, total,
		transport.Config{InitWindow: 256 * units.KB, ExpectedRTT: 20 * units.Microsecond}, nil)
	c.snd.Bind(1, snd)
	relay.Start(c.e)
	snd.Start(c.e)
	// The relay queue is what has arrived upstream and not yet left
	// downstream; sample its depth after every event.
	var maxQueue units.ByteSize
	for c.e.Now() < units.Time(10*units.Second) && c.e.Step() {
		maxQueue = max(maxQueue, relay.Up.Bytes()-relay.Down.SentBytes())
	}

	if !rcv.Done() {
		t.Fatal("incomplete")
	}
	// Upstream finishes in ~150us; downstream needs several 2ms RTTs, so
	// nearly the whole flow must have queued at the proxy.
	if maxQueue < total/2 {
		t.Fatalf("relay queue peaked at %v, expected a deep relay queue", maxQueue)
	}
}
