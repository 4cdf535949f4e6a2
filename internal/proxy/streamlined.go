// Package proxy implements the paper's two proxy designs (§3, §4.1):
//
//   - Naive: two independent transport connections per flow, joined by a
//     relay queue at the proxy. The proxy runs full sender and receiver
//     logic; the upstream connection is contained in the sending
//     datacenter, so its feedback loop is microseconds long.
//
//   - Streamlined: a single end-to-end connection routed through the
//     proxy. Switches in the sending datacenter trim overflowing packets
//     to headers; when a header-only packet reaches the proxy, it NACKs
//     the sender immediately — loss is detected and signalled as if the
//     proxy were the receiver — and forwards everything else unchanged.
package proxy

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// StreamlinedStats counts per-flow proxy activity.
type StreamlinedStats struct {
	DataForwarded uint64
	AcksRelayed   uint64
	NacksSent     uint64
	NacksRelayed  uint64
}

// Streamlined is the lightweight per-flow proxy endpoint of §3 Insight #3.
// It keeps no connection state: it only inspects whether a data packet was
// trimmed. Bind it at the proxy host for the flow's ID.
type Streamlined struct {
	host     *netsim.Host
	flow     netsim.FlowID
	sender   netsim.NodeID
	receiver netsim.NodeID

	// ProcDelay models the per-packet processing overhead of the eBPF
	// TC-hook implementation (§5 measures a 0.42 us median lower
	// bound). Nil means zero overhead.
	ProcDelay rng.Distribution
	src       rng.Source // ProcDelay's stream, held here so a proxied flow is one object

	// NoEarlyNack disables the proxy's loss feedback: trimmed headers
	// are forwarded to the remote receiver instead of being NACKed
	// locally. This is the §3 Insight #2 ablation ("a proxy that simply
	// relays packets ... does not accelerate convergence").
	NoEarlyNack bool

	Stats StreamlinedStats
}

// NewStreamlined creates the proxy endpoint for one flow whose sender and
// eventual receiver are the given hosts. It keeps a copy of src (nil: the
// zero Source) to draw procDelay from, so src should be a stream of the
// proxy's own (Source.Child) that nothing else draws from.
func NewStreamlined(host *netsim.Host, flow netsim.FlowID, sender, receiver netsim.NodeID,
	procDelay rng.Distribution, src *rng.Source) *Streamlined {
	p := new(Streamlined)
	p.Init(host, flow, sender, receiver, procDelay, src)
	return p
}

// Init makes p the endpoint NewStreamlined returns, in place, for a caller
// that holds its proxy endpoints in one array.
func (p *Streamlined) Init(host *netsim.Host, flow netsim.FlowID, sender, receiver netsim.NodeID,
	procDelay rng.Distribution, src *rng.Source) {
	*p = Streamlined{
		host:      host,
		flow:      flow,
		sender:    sender,
		receiver:  receiver,
		ProcDelay: procDelay,
	}
	if src != nil {
		p.src = *src
	}
}

// Handle implements netsim.Endpoint.
func (p *Streamlined) Handle(e *sim.Engine, pkt *netsim.Packet) {
	d := units.Duration(0)
	if p.ProcDelay != nil {
		d = p.ProcDelay.Sample(&p.src)
	}
	if d <= 0 {
		p.process(e, pkt)
		return
	}
	e.ScheduleHandler(e.Now().Add(d), 0, (*streamlinedDelay)(p), pkt)
}

// streamlinedDelay is the Streamlined as the handler of its processing-delay
// event; the packet rides as the argument.
type streamlinedDelay Streamlined

func (d *streamlinedDelay) Fire(e *sim.Engine, arg any) {
	(*Streamlined)(d).process(e, arg.(*netsim.Packet))
}

// process forwards or answers one packet. The proxy owns a packet only while
// it is here: everything forwarded passes on with Send; the one packet it
// consumes is the trimmed header it answers with a NACK.
func (p *Streamlined) process(e *sim.Engine, pkt *netsim.Packet) {
	switch {
	case pkt.Kind == netsim.Data && pkt.Trimmed && p.NoEarlyNack:
		// Ablation: relay the trimmed header to the receiver; the
		// loss signal then pays the full long-haul round trip.
		p.Stats.DataForwarded++
		pkt.Dst = p.receiver
		pkt.Hops = 0
		p.host.Send(e, pkt)
	case pkt.Kind == netsim.Data && pkt.Trimmed:
		// Early loss feedback: NACK the sender now instead of
		// letting the header cross the long-haul link.
		p.Stats.NacksSent++
		n := p.host.NewPacket()
		n.Flow = p.flow
		n.Kind = netsim.Nack
		n.Seq = pkt.Seq
		n.Size = netsim.ControlSize
		n.FullSize = netsim.ControlSize
		n.Dst = p.sender
		p.host.Release(pkt)
		p.host.Send(e, n)
	case pkt.Kind == netsim.Data:
		// Forward toward the real receiver.
		p.Stats.DataForwarded++
		pkt.Dst = p.receiver
		pkt.Hops = 0
		p.host.Send(e, pkt)
	default:
		// Control from the receiver side: relay to the sender.
		if pkt.Kind == netsim.Ack {
			p.Stats.AcksRelayed++
		} else {
			p.Stats.NacksRelayed++
		}
		pkt.Dst = p.sender
		pkt.Hops = 0
		p.host.Send(e, pkt)
	}
}
