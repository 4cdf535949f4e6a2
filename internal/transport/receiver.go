package transport

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// ReceiverStats counts what one receiving endpoint observed.
type ReceiverStats struct {
	PktsReceived uint64
	Duplicates   uint64
	TrimmedSeen  uint64
	AcksSent     uint64
	NacksSent    uint64
}

// add adds o's counts to s's.
func (s *ReceiverStats) add(o *ReceiverStats) {
	s.PktsReceived += o.PktsReceived
	s.Duplicates += o.Duplicates
	s.TrimmedSeen += o.TrimmedSeen
	s.AcksSent += o.AcksSent
	s.NacksSent += o.NacksSent
}

// Receiver is the receiving endpoint of one flow: it acknowledges every
// data packet individually, echoing the packet's ECN mark, and NACKs
// trimmed headers that reach it. Bind it to its host before use.
type Receiver struct {
	host *netsim.Host
	flow netsim.FlowID
	// ackDst is where control packets are addressed: the sender
	// directly, or the streamlined proxy, which relays them.
	ackDst netsim.NodeID

	// OnData, if set, observes every new (non-duplicate, non-trimmed)
	// data packet before it is acknowledged; the naive proxy's upstream
	// half uses it to release the packet's bytes to its downstream half.
	OnData func(e *sim.Engine, p *netsim.Packet)

	expected units.ByteSize
	received seqSet
	bytes    units.ByteSize
	done     bool
	doneAt   units.Time
	onDone   func(units.Time)
	Stats    ReceiverStats
}

// NewReceiver creates a receiver expecting the given number of bytes; it
// completes when that many distinct bytes have arrived. Control packets are
// sent to ackDst. Its bitset is sized for packets of DefaultMSS;
// Slab.NewReceiver takes the flow's packet size.
func NewReceiver(host *netsim.Host, flow netsim.FlowID, ackDst netsim.NodeID,
	expected units.ByteSize, onDone func(units.Time)) *Receiver {
	var sl Slab
	return sl.NewReceiver(host, flow, ackDst, expected, DefaultMSS, onDone)
}

// Bytes returns the distinct payload bytes received so far.
func (r *Receiver) Bytes() units.ByteSize { return r.bytes }

// Done reports whether all expected bytes have arrived.
func (r *Receiver) Done() bool { return r.done }

// DoneAt returns the completion time (valid once Done).
func (r *Receiver) DoneAt() units.Time { return r.doneAt }

// Handle implements netsim.Endpoint. The receiver is where a data packet
// ends: once it is acknowledged (and OnData has seen it) it is released.
func (r *Receiver) Handle(e *sim.Engine, p *netsim.Packet) {
	if p.Kind == netsim.Data { // receivers only consume data
		r.onData(e, p)
	}
	r.host.Release(p)
}

func (r *Receiver) onData(e *sim.Engine, p *netsim.Packet) {
	if p.Trimmed {
		// The streamlined proxy's value is generating this same NACK a
		// millisecond earlier.
		r.Stats.TrimmedSeen++
		r.sendControl(e, netsim.Nack, p)
		return
	}
	r.Stats.PktsReceived++
	if r.received.has(p.Seq) {
		r.Stats.Duplicates++
		// Re-ACK: the earlier ACK may have been dropped or the
		// sender may have spuriously retransmitted.
		r.sendControl(e, netsim.Ack, p)
		return
	}
	r.received.add(p.Seq)
	r.bytes += p.Size
	if r.OnData != nil {
		r.OnData(e, p)
	}
	r.sendControl(e, netsim.Ack, p)
	if !r.done && r.bytes >= r.expected {
		r.done = true
		r.doneAt = e.Now()
		if r.onDone != nil {
			r.onDone(e.Now())
		}
	}
}

// sendControl emits an ACK or NACK for data packet p back toward ackDst.
func (r *Receiver) sendControl(e *sim.Engine, kind netsim.Kind, p *netsim.Packet) {
	c := r.host.NewPacket()
	c.Flow = r.flow
	c.Kind = kind
	c.Seq = p.Seq
	c.Size = netsim.ControlSize
	c.FullSize = netsim.ControlSize
	c.Dst = r.ackDst
	c.FinalDst = p.Src
	c.EchoECN = p.ECN && kind == netsim.Ack
	c.Retx = p.Retx // Karn: flag acks of retransmitted data
	c.SentAt = p.SentAt
	if kind == netsim.Ack {
		r.Stats.AcksSent++
	} else {
		r.Stats.NacksSent++
	}
	r.host.Send(e, c)
}

// seqSet is a set of sequence numbers as a bitset: sequences are dense from
// 0, so the set costs one bit per packet and membership is an index. Its
// words are carved from a Slab for the flow's expected packets.
type seqSet []uint64

func (s seqSet) has(seq int64) bool {
	w := int(seq >> 6)
	return w < len(s) && s[w]&(1<<uint(seq&63)) != 0
}

func (s *seqSet) add(seq int64) {
	w := int(seq >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(seq&63)
}
