package proxy

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

func newInferChain(t *testing.T) (*chain, *InferringGroup) {
	t.Helper()
	c := newChain(t, netsim.QueueConfig{})
	g := NewInferringGroup(c.prx, LossTrackerConfig{
		ReorderDelay: 50 * units.Microsecond,
	}, 20*units.Microsecond, nil, nil)
	g.AddFlow(1, c.snd.ID(), c.rcv.ID())
	return c, g
}

func sendData(c *chain, e *sim.Engine, seq int64, retx bool) {
	pkt := c.snd.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Seq = seq
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Retx = retx
	pkt.Dst = c.prx.ID()
	pkt.FinalDst = c.rcv.ID()
	c.snd.Send(e, pkt)
}

func TestInferringForwardsInOrderData(t *testing.T) {
	c, g := newInferChain(t)
	got := 0
	c.rcv.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) { got++ }))
	nacks := 0
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, p *netsim.Packet) {
		if p.Kind == netsim.Nack {
			nacks++
		}
	}))
	g.Start(c.e, units.Time(10*units.Millisecond))
	for seq := int64(0); seq < 50; seq++ {
		sendData(c, c.e, seq, false)
	}
	c.e.RunUntil(units.Time(5 * units.Millisecond))
	if got != 50 {
		t.Fatalf("forwarded %d/50", got)
	}
	if nacks != 0 {
		t.Fatalf("in-order stream produced %d NACKs", nacks)
	}
	if g.Stats.DataForwarded != 50 {
		t.Fatalf("stats: %+v", g.Stats)
	}
}

func TestInferringNacksSequenceGapAfterDelay(t *testing.T) {
	c, g := newInferChain(t)
	c.rcv.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	var nackSeqs []int64
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, p *netsim.Packet) {
		if p.Kind == netsim.Nack {
			nackSeqs = append(nackSeqs, p.Seq)
		}
	}))
	g.Start(c.e, units.Time(10*units.Millisecond))
	// Seqs 0,1,3,4 — 2 is "dropped" before the proxy.
	for _, seq := range []int64{0, 1, 3, 4} {
		sendData(c, c.e, seq, false)
	}
	c.e.RunUntil(units.Time(5 * units.Millisecond))
	if len(nackSeqs) != 1 || nackSeqs[0] != 2 {
		t.Fatalf("nacks = %v, want [2]", nackSeqs)
	}
	if g.Stats.NacksSent != 1 {
		t.Fatalf("stats: %+v", g.Stats)
	}
}

func TestInferringRetransmissionFillsHoleWithoutFalseNack(t *testing.T) {
	c, g := newInferChain(t)
	c.rcv.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	c.snd.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	g.Start(c.e, units.Time(50*units.Millisecond))
	sendData(c, c.e, 0, false)
	sendData(c, c.e, 2, false)                  // hole at 1
	c.e.RunUntil(units.Time(units.Millisecond)) // hole flagged + NACKed
	sendData(c, c.e, 1, true)                   // retransmission arrives
	c.e.RunUntil(units.Time(5 * units.Millisecond))
	if g.Stats.FalseNacks != 0 {
		t.Fatalf("retransmission must not count as false NACK: %+v", g.Stats)
	}
	if g.Stats.NacksSent != 1 {
		t.Fatalf("stats: %+v", g.Stats)
	}
}

func TestInferringLateOriginalCountsFalseNack(t *testing.T) {
	c, g := newInferChain(t)
	c.rcv.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	c.snd.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	g.Start(c.e, units.Time(50*units.Millisecond))
	sendData(c, c.e, 0, false)
	sendData(c, c.e, 2, false)
	c.e.RunUntil(units.Time(units.Millisecond)) // NACK for 1 already sent
	sendData(c, c.e, 1, false)                  // the ORIGINAL shows up late
	c.e.RunUntil(units.Time(5 * units.Millisecond))
	if g.Stats.FalseNacks != 1 {
		t.Fatalf("late original must count as false NACK: %+v", g.Stats)
	}
}

func TestInferringRelaysControl(t *testing.T) {
	c, g := newInferChain(t)
	g.Start(c.e, units.Time(units.Millisecond))
	var gotAck bool
	c.snd.Bind(1, netsim.EndpointFunc(func(_ *sim.Engine, p *netsim.Packet) {
		gotAck = p.Kind == netsim.Ack && p.EchoECN
	}))
	a := c.rcv.NewPacket()
	a.Flow = 1
	a.Kind = netsim.Ack
	a.Seq = 9
	a.Size = netsim.ControlSize
	a.EchoECN = true
	a.Dst = c.prx.ID()
	a.FinalDst = c.snd.ID()
	c.rcv.Send(c.e, a)
	c.e.Run()
	if !gotAck || g.Stats.AcksRelayed != 1 {
		t.Fatalf("ack not relayed: %+v", g.Stats)
	}
}

func TestInferringUnknownFlowDropped(t *testing.T) {
	c, g := newInferChain(t)
	g.process(c.e, 99, &netsim.Packet{Kind: netsim.Data, Flow: 99, Size: 1500})
	if g.Stats.DataForwarded != 0 {
		t.Fatal("unknown flow must be ignored")
	}
}

func TestInferringStartIdempotent(t *testing.T) {
	c, g := newInferChain(t)
	g.Start(c.e, units.Time(units.Millisecond))
	g.Start(c.e, units.Time(units.Millisecond)) // no double flush loop
	c.e.Run()
	if g.Tracker() == nil {
		t.Fatal("tracker accessor broken")
	}
}
