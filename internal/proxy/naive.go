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
// by a sender of the same bytes. "Proxy_S sends a packet onto the wire as
// long as the queue at proxy_R is non-empty and there is bandwidth
// available" (§4.1) — here each upstream arrival raises the downstream
// sender's limit (Release), so the relay queue is the bytes the upstream
// leg has received and the downstream leg has not yet sent, Up.Bytes()
// minus Down.SentBytes(), and "bandwidth available" is the downstream
// sender's congestion window.
type Naive struct {
	Up   *transport.Receiver
	Down *transport.Sender
}

// NewNaive wires the proxy-side endpoints for one relayed flow of total
// bytes and binds them at the proxy host. senderID is the upstream flow's
// sender (ACK destination); receiverID the downstream destination host;
// downCfg configures the downstream leg's sender.
func NewNaive(proxyHost *netsim.Host, upFlow, downFlow netsim.FlowID,
	senderID, receiverID netsim.NodeID, total units.ByteSize, downCfg transport.Config) *Naive {
	down := transport.NewSender(proxyHost, downFlow, receiverID, 0, total, downCfg, nil)
	down.FreezeNew() // nothing goes down before it has come up
	up := transport.NewReceiver(proxyHost, upFlow, senderID, total, nil)
	up.OnData = func(e *sim.Engine, p *netsim.Packet) { down.Release(e, p.Size) }
	proxyHost.Bind(upFlow, up)
	proxyHost.Bind(downFlow, down)
	return &Naive{Up: up, Down: down}
}

// Start starts the downstream leg (it idles until bytes are released).
func (n *Naive) Start(e *sim.Engine) { n.Down.Start(e) }
