package proxy

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// Naive joins two independent transport connections at the proxy host:
// an upstream leg (sender -> proxy, flow upFlow) terminated by a full
// receiver, and a downstream leg (proxy -> receiver, flow downFlow) driven
// by a streaming sender. "Proxy_S sends a packet onto the wire as long as
// the queue at proxy_R is non-empty and there is bandwidth available"
// (§4.1) — here the relay queue is the streaming sender's supply queue and
// "bandwidth available" is its congestion window.
type Naive struct {
	Up   *transport.Receiver
	Down *transport.Sender

	// MaxRelayQueue is the high-watermark of bytes buffered at the
	// proxy between the two legs (received upstream, not yet sent
	// downstream).
	MaxRelayQueue units.ByteSize
	relayed       units.ByteSize
}

// NaiveConfig configures the two legs.
type NaiveConfig struct {
	// Total is the number of bytes this flow carries end to end: what the
	// sender->proxy leg's receiver expects.
	Total units.ByteSize
	// DownCfg configures the proxy->receiver leg's sender.
	DownCfg transport.Config
}

// NewNaive wires the proxy-side endpoints for one relayed flow and binds
// them at the proxy host. senderID is the upstream flow's sender (ACK
// destination); receiverID the downstream destination host.
func NewNaive(proxyHost *netsim.Host, upFlow, downFlow netsim.FlowID,
	senderID, receiverID netsim.NodeID, cfg NaiveConfig) *Naive {
	n := &Naive{}
	n.Down = transport.NewStreamingSender(proxyHost, downFlow, receiverID, 0, cfg.DownCfg, nil)
	n.Up = transport.NewReceiver(proxyHost, upFlow, senderID, cfg.Total, nil)
	n.Up.OnData = func(e *sim.Engine, p *netsim.Packet) {
		n.relayed += p.Size
		n.Down.Supply(e, p.Size)
		if q := n.Down.SupplyBacklog(); q > n.MaxRelayQueue {
			n.MaxRelayQueue = q
		}
		if n.Up.Done() {
			n.Down.CloseSupply(e)
		}
	}
	proxyHost.Bind(upFlow, n.Up)
	proxyHost.Bind(downFlow, n.Down)
	return n
}

// Start starts the downstream leg (it idles until supplied).
func (n *Naive) Start(e *sim.Engine) { n.Down.Start(e) }

// Relayed returns the bytes received upstream so far.
func (n *Naive) Relayed() units.ByteSize { return n.relayed }
