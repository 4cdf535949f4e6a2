package netsim

import (
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
// via Connect; each direction has its own queue, busy state and pipe of
// packets in flight. A hop costs one event, the arrival, waited or not.
type Port struct {
	owner     Node
	peer      *Port
	rate      units.BitRate
	psPerByte int64 // rate as a byte's serialization time, if whole; else 0
	delay     units.Duration
	q         queue
	src       rng.Source // q's marking source, when seeded; held here so a port is one object
	// freeAt is when the packet in service finishes serializing (-1 before
	// the first). The link stays busy through that instant: see Send.
	freeAt units.Time
	pipe   pktList     // the packets on the wire: see arrival
	eng    *sim.Engine // set when a packet first waits in q: QueuedBytes reads its clock
	// txEndArmed is set while a serialization-end event is pending.
	txEndArmed bool
	seeded     bool // src is q's marking source; without one q marks by threshold
}

// Connect joins a and b with a full-duplex link of the given rate and
// one-way propagation delay. qa configures a's egress queue (toward b) and
// qb configures b's egress queue (toward a). It returns the two ports
// (a-side first).
func Connect(a, b Node, rate units.BitRate, delay units.Duration, qa, qb QueueConfig, src *rng.Source) (*Port, *Port) {
	pair := new([2]Port)
	Link(&pair[0], &pair[1], a, b, rate, delay, qa, qb, src)
	return &pair[0], &pair[1]
}

// Link is Connect over two zero Ports the caller already holds, pa becoming
// a's and pb b's, for a fabric that keeps all its ports in one array.
func Link(pa, pb *Port, a, b Node, rate units.BitRate, delay units.Duration, qa, qb QueueConfig, src *rng.Source) {
	var psPerByte int64
	if rate > 0 && int64(8*units.Second)%int64(rate) == 0 {
		psPerByte = int64(8*units.Second) / int64(rate)
	}
	*pa = Port{owner: a, peer: pb, rate: rate, psPerByte: psPerByte, delay: delay, q: queue{cfg: qa}, freeAt: -1}
	*pb = Port{owner: b, peer: pa, rate: rate, psPerByte: psPerByte, delay: delay, q: queue{cfg: qb}, freeAt: -1}
	if src != nil {
		pa.src, pb.src = src.Child(int64(a.ID())<<16|int64(b.ID())), src.Child(int64(b.ID())<<16|int64(a.ID()))
		pa.seeded, pb.seeded = true, true
	}
	if attacher, ok := a.(portAttacher); ok {
		attacher.attachPort(pa)
	}
	if attacher, ok := b.(portAttacher); ok {
		attacher.attachPort(pb)
	}
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

// Label returns a human-readable "src->dst" name for telemetry (made per call).
func (p *Port) Label() string {
	var b [64]byte
	return string(p.appendLabel(b[:0]))
}

// appendLabel appends the port's Label to b.
func (p *Port) appendLabel(b []byte) []byte {
	b = append(appendNodeName(b, p.owner), "->"...)
	return appendNodeName(b, p.peer.owner)
}

// appendNodeName appends n's name to b, rendering a fabric node's straight
// from its Name.
func appendNodeName(b []byte, n Node) []byte {
	switch n := n.(type) {
	case *Switch:
		return n.name.appendTo(b)
	case *Host:
		return n.name.appendTo(b)
	}
	return append(b, n.Name()...)
}

// Stats returns a snapshot of the egress queue's counters.
func (p *Port) Stats() QueueStats { return p.q.Stats }

// QueuedBytes returns the current data-band occupancy of the egress queue.
func (p *Port) QueuedBytes() units.ByteSize {
	if p.eng != nil {
		p.catchUp(p.eng)
	}
	return p.q.bytesQueued()
}

// SetTracers attaches (or, with nil, detaches) an event tracer to the
// egress queue of every port of ports, in one allocation: every trim, drop
// and ECN mark is recorded as an instant on the packet's flow track. A
// port's label is rendered when it records its first event.
func SetTracers(ports []Port, t *obs.Tracer) {
	var qts []queueTracer
	if t != nil {
		qts = make([]queueTracer, len(ports))
	}
	for i := range ports {
		ports[i].q.trace = nil
		if t != nil {
			qts[i] = queueTracer{tracer: t, port: &ports[i]}
			ports[i].q.trace = &qts[i]
		}
	}
}

// Instrument exports this port's queue counters to the registry through one
// collector, under netsim_queue_* names labelled with the port, plus its
// occupancy and its high-water mark. Zero hot-path cost: values are read from
// QueueStats only at snapshot time.
func (p *Port) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	// The six names are rendered into one buffer and kept as substrings of
	// one string: a port's series cost one allocation.
	var lb [64]byte
	label := p.appendLabel(lb[:0])
	var nb [512]byte
	b := nb[:0]
	var end [len(portSeries) + 1]int
	for i, base := range portSeries {
		b = obs.AppendLabeledName(b, base, "port", label)
		end[i+1] = len(b)
	}
	all := string(b)
	var name [len(portSeries)]string
	for i := range name {
		name[i] = all[end[i]:end[i+1]]
	}
	reg.Collect(func(c *obs.Collector) {
		st := &p.q.Stats
		c.Counter(name[0], st.Enqueued)
		c.Counter(name[1], st.Dropped)
		c.Counter(name[2], st.Trimmed)
		c.Counter(name[3], st.Marked)
		c.Gauge(name[4], int64(st.MaxBytes))
		c.Gauge(name[5], int64(p.QueuedBytes()))
	})
}

// portSeries are the series Port.Instrument exports, in the order its
// collector emits them.
var portSeries = [...]string{
	"netsim_queue_enqueued_total", "netsim_queue_dropped_total", "netsim_queue_trimmed_total",
	"netsim_queue_marked_total", "netsim_queue_max_bytes", "netsim_queue_bytes",
}

// Send enqueues pkt for transmission out of this port. Drops and trims are
// applied by the queue according to its configuration.
//
// The link is busy through the instant freeAt, not only before it: a packet
// offered at exactly freeAt is admitted, marked or trimmed against the queue
// as it stands, and the next one starts serializing only once the instant is
// over (catchUp pops strictly before now; a txEnd event is plain, so it runs
// after every arrival of its instant). Counting the link idle at freeAt would
// let one of those arrivals see the queue a packet shorter than the others do.
func (p *Port) Send(e *sim.Engine, pkt *Packet) {
	pkt.checkLive("Port.Send")
	p.catchUp(e)
	var src *rng.Source
	if p.seeded {
		src = &p.src
	}
	if !p.q.enqueue(e.Now(), pkt, src) {
		return // dropped; counted in queue stats
	}
	switch {
	case e.Now() > p.freeAt: // idle, and after catchUp nothing else is queued
		p.transmit(e, e.Now())
	case p.txEndArmed: // the pending serialization-end event will get to it
	case p.pipe.head == nil:
		p.armTxEnd(e)
	case p.eng == nil: // the pipe's event will start it; QueuedBytes needs the clock
		p.eng = e
	}
}

// transmit starts serializing the next queued packet at the instant at (now,
// or from catchUp the instant the link fell free) and commits it to the wire
// in the same step: it joins the pipe with its arrival time, serialization
// plus propagation from at.
func (p *Port) transmit(e *sim.Engine, at units.Time) {
	pkt := p.q.pop()
	ser := units.Duration(int64(pkt.Size) * p.psPerByte) // no 128-bit division
	if p.psPerByte == 0 {
		ser = p.rate.TransmitTime(pkt.Size)
	}
	p.freeAt = at.Add(ser)
	pkt.at = p.freeAt.Add(p.delay)
	if p.pipe.push(pkt, inPipe); p.pipe.head == pkt { // the pipe was empty
		e.ScheduleHandler(pkt.at, DeliveryKey(pkt), (*arrival)(p), nil)
	} else {
		e.Park()
	}
}

// catchUp runs the overdue serialization ends, every one strictly before now
// (Send), each at its own instant. It is called wherever the queue is read or
// changed; nothing touched the port in between, so the starts and arrivals
// are those an event per serialization end would have produced. The pipe's
// event brings a touch in time: the packet in service is in the pipe until
// freeAt+delay, and what starts here arrives later still. Where no such event
// exists, at zero delay once the pipe empties at freeAt, a txEnd fires at
// freeAt, leaving nothing overdue (DESIGN §3).
func (p *Port) catchUp(e *sim.Engine) {
	for p.freeAt < e.Now() && !p.q.empty() {
		p.transmit(e, p.freeAt)
	}
}

func (p *Port) armTxEnd(e *sim.Engine) {
	p.txEndArmed = true
	e.ScheduleHandler(p.freeAt, 0, (*txEnd)(p), nil)
}

// txEnd is the Port as the handler of its serialization-end event (catchUp).
type txEnd Port

func (t *txEnd) Fire(e *sim.Engine, _ any) {
	p := (*Port)(t)
	p.txEndArmed = false
	p.transmit(e, e.Now())
}

// arrival is the Port as the handler of its pipe's event: the head of the
// pipe has reached the far end. The pipe is the link itself: the packets in
// flight, oldest first, each carrying the time it arrives (Packet.at). A link
// preserves order and serializing a packet takes time, so arrival times rise
// strictly along the list and only its head can be the next to arrive. The
// pipe therefore holds one event in the engine, for its head, keyed with the
// head's DeliveryKey; the packets behind it are parked (sim.Engine.Park) and
// each is armed in turn when it becomes the head. Same-instant arrivals are
// then the heads of distinct pipes and run in DeliveryKey order, exactly as
// one event per packet would.
type arrival Port

func (a *arrival) Fire(e *sim.Engine, _ any) {
	p := (*Port)(a)
	pkt := p.pipe.pop()
	rearm := p.pipe.head != nil
	p.catchUp(e) // arms the head itself if the pipe was empty
	if rearm {
		// Re-arm before delivering: the next head's event is then ahead, in
		// scheduling order, of everything the delivery schedules.
		e.Unpark(p.pipe.head.at, DeliveryKey(p.pipe.head), a, nil)
	} else if p.pipe.head == nil && !p.q.empty() && !p.txEndArmed {
		p.armTxEnd(e) // zero delay: nothing is overdue yet, and no pipe event is left
	}
	p.peer.owner.Receive(e, pkt, p.peer)
}
