package netsim

import (
	"fmt"

	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// Node is anything attached to the fabric that can receive packets.
type Node interface {
	ID() NodeID
	Name() string
	// Receive is called when a packet has fully arrived at this node.
	Receive(e *sim.Engine, p *Packet, from *Port)
}

// Port is one unidirectional egress attachment point of a node: an output
// queue in front of a serializing link. Two ports form a full-duplex link
// via Connect; each direction has its own queue and busy state.
type Port struct {
	owner   Node
	peer    *Port
	rate    units.BitRate
	delay   units.Duration
	q       *queue
	busy    bool
	down    bool
	corrupt func(*Packet) bool
	handoff func(at units.Time, pkt *Packet)
	label   string
}

// Connect joins a and b with a full-duplex link of the given rate and
// one-way propagation delay. qa configures a's egress queue (toward b) and
// qb configures b's egress queue (toward a). It returns the two ports
// (a-side first).
func Connect(a, b Node, rate units.BitRate, delay units.Duration, qa, qb QueueConfig, src *rng.Source) (*Port, *Port) {
	var sa, sb *rng.Source
	if src != nil {
		sa, sb = src.Split(int64(a.ID())<<16|int64(b.ID())), src.Split(int64(b.ID())<<16|int64(a.ID()))
	}
	pa := &Port{owner: a, rate: rate, delay: delay, q: newQueue(qa, sa),
		label: fmt.Sprintf("%s->%s", a.Name(), b.Name())}
	pb := &Port{owner: b, rate: rate, delay: delay, q: newQueue(qb, sb),
		label: fmt.Sprintf("%s->%s", b.Name(), a.Name())}
	pa.peer, pb.peer = pb, pa
	if attacher, ok := a.(portAttacher); ok {
		attacher.attachPort(pa)
	}
	if attacher, ok := b.(portAttacher); ok {
		attacher.attachPort(pb)
	}
	return pa, pb
}

type portAttacher interface{ attachPort(*Port) }

// Owner returns the node this port belongs to.
func (p *Port) Owner() Node { return p.owner }

// Peer returns the port at the far end of the link.
func (p *Port) Peer() *Port { return p.peer }

// Rate returns the link bandwidth.
func (p *Port) Rate() units.BitRate { return p.rate }

// Delay returns the one-way propagation delay.
func (p *Port) Delay() units.Duration { return p.delay }

// Label returns a human-readable "src->dst" name for telemetry.
func (p *Port) Label() string { return p.label }

// Stats returns a snapshot of the egress queue's counters.
func (p *Port) Stats() QueueStats { return p.q.Stats }

// QueuedBytes returns the current data-band occupancy of the egress queue.
func (p *Port) QueuedBytes() units.ByteSize { return p.q.bytesQueued() }

// SetDown takes this egress direction of the link down (true) or restores
// it. While down, every packet offered to the port is dropped — failure
// injection for robustness tests. Packets already serialized keep
// propagating (a cut does not recall photons in flight).
func (p *Port) SetDown(down bool) { p.down = down }

// Down reports whether the egress direction is failed.
func (p *Port) Down() bool { return p.down }

// SetCorrupt installs a per-packet corruption predicate: every packet
// offered to the port for which fn returns true is destroyed (a corrupted
// frame fails its FCS at the far end and is never delivered). fn is invoked
// once per offered packet, so a seeded random predicate stays deterministic.
// Pass nil to clear.
func (p *Port) SetCorrupt(fn func(*Packet) bool) { p.corrupt = fn }

// SetHandoff diverts this port's deliveries to fn instead of scheduling
// them on the local engine: fn receives the arrival time (serialization end
// plus the link's propagation delay) and the packet, and is responsible for
// running the peer's Delivery handler on the packet at that time. The
// sharded runtime installs handoffs on every boundary link so that
// cross-shard packets travel through the shard group's deterministic
// inter-shard queues. Pass nil to restore local delivery.
func (p *Port) SetHandoff(fn func(at units.Time, pkt *Packet)) { p.handoff = fn }

// SetTracer attaches (or, with nil, detaches) an event tracer to this
// port's egress queue: every trim, drop, ECN mark, down-drop, and
// corruption event is recorded as an instant on the packet's flow track.
func (p *Port) SetTracer(t *obs.Tracer) {
	p.q.trace = t
	p.q.label = p.label
}

// Instrument exports this port's queue counters to the registry as lazy
// collectors under netsim_queue_* names labelled with the port, plus its
// occupancy high-water mark. Zero hot-path cost: values are read from
// QueueStats only at snapshot time.
func (p *Port) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	label := fmt.Sprintf("{port=%q}", p.label)
	reg.CounterFunc("netsim_queue_enqueued_total"+label, func() uint64 { return p.q.Stats.Enqueued })
	reg.CounterFunc("netsim_queue_dropped_total"+label, func() uint64 { return p.q.Stats.Dropped })
	reg.CounterFunc("netsim_queue_trimmed_total"+label, func() uint64 { return p.q.Stats.Trimmed })
	reg.CounterFunc("netsim_queue_marked_total"+label, func() uint64 { return p.q.Stats.Marked })
	reg.CounterFunc("netsim_queue_corrupted_total"+label, func() uint64 { return p.q.Stats.Corrupted })
	reg.GaugeFunc("netsim_queue_max_bytes"+label, func() int64 { return int64(p.q.Stats.MaxBytes) })
	reg.GaugeFunc("netsim_queue_bytes"+label, func() int64 { return int64(p.q.bytesQueued()) })
}

// Send enqueues pkt for transmission out of this port. Drops and trims are
// applied by the queue according to its configuration.
func (p *Port) Send(e *sim.Engine, pkt *Packet) {
	pkt.checkLive("Port.Send")
	if p.down {
		p.q.Stats.Dropped++
		p.q.traceEvent(e.Now(), "down-drop", pkt)
		return
	}
	if p.corrupt != nil && p.corrupt(pkt) {
		p.q.Stats.Corrupted++
		p.q.traceEvent(e.Now(), "corrupt", pkt)
		return
	}
	if !p.q.enqueue(e.Now(), pkt) {
		return // dropped; counted in queue stats
	}
	p.tryTransmit(e)
}

// tryTransmit starts serializing the next queued packet if the link is idle.
// A hop is two events, and both schedule the port itself with the packet as
// the argument: txDone on this port when serialization ends, delivery on the
// peer port one propagation delay later.
func (p *Port) tryTransmit(e *sim.Engine) {
	if p.busy || p.q.empty() {
		return
	}
	pkt := p.q.pop()
	p.busy = true
	e.ScheduleHandler(e.Now().Add(p.rate.TransmitTime(pkt.Size)), 0, (*txDone)(p), pkt)
}

// txDone is the Port as the handler of its serialization-end event.
type txDone Port

func (t *txDone) Fire(e *sim.Engine, arg any) {
	p, pkt := (*Port)(t), arg.(*Packet)
	p.busy = false
	// Propagation: the packet arrives at the peer after the one-way
	// delay; the link is pipelined, so the next packet can start
	// serializing immediately. Deliveries are keyed by DeliveryKey so
	// same-instant arrivals at a node execute in an order intrinsic to the
	// packets — independent of how the fabric is sharded.
	arrive := e.Now().Add(p.delay)
	if p.handoff != nil {
		p.handoff(arrive, pkt)
	} else {
		e.ScheduleHandler(arrive, DeliveryKey(pkt), p.peer.Delivery(), pkt)
	}
	p.tryTransmit(e)
}

// delivery is the Port as the handler of a packet's arrival through it.
type delivery Port

func (d *delivery) Fire(e *sim.Engine, arg any) {
	p := (*Port)(d)
	p.owner.Receive(e, arg.(*Packet), p)
}

// Delivery returns the handler that delivers its *Packet argument to this
// port's owner as an arrival over this port's link. The transmitting peer
// schedules it for local links; a handoff (SetHandoff) posts it on the
// owner's shard.
func (p *Port) Delivery() sim.Handler { return (*delivery)(p) }
