package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// keyedSend offers its packet to a port as a keyed event, which is how every
// arrival at a switch reaches the next port.
type keyedSend struct{ port *Port }

func (k keyedSend) Fire(e *sim.Engine, arg any) { k.port.Send(e, arg.(*Packet)) }

// The tie rule. A link is busy through the instant its packet finishes
// serializing: arrivals are keyed events and run before the plain
// serialization-end event of the same instant, so a packet offered at exactly
// that instant is judged against the queue as it stands before the pop.
func TestSendAtSerializationEndStillQueues(t *testing.T) {
	const (
		tx   = 120 * units.Nanosecond  // 1500 B at 100 Gb/s
		hdr  = 5120 * units.Picosecond // a trimmed 64 B header
		prop = units.Microsecond
	)
	// Room for one full packet, not two.
	trimming := QueueConfig{Capacity: 2999, Trim: true}
	offer := func(e *sim.Engine, port *Port, at units.Time, pkt *Packet) {
		e.ScheduleHandler(at, DeliveryKey(pkt), keyedSend{port}, pkt)
	}
	ids := func(s *sinkNode) (out []uint64) {
		for _, p := range s.arrived {
			out = append(out, p.ID)
		}
		return out
	}

	t.Run("behind a queued packet", func(t *testing.T) {
		e := sim.New()
		a, b := &sinkNode{id: 1}, &sinkNode{id: 2}
		pa, _ := Connect(a, b, 100*units.Gbps, prop, trimming, QueueConfig{}, nil)
		p1, p2, p3 := dataPkt(1, 1500), dataPkt(2, 1500), dataPkt(3, 1500)
		pa.Send(e, p1) // in service until tx
		pa.Send(e, p2) // queued behind it
		offer(e, pa, units.Time(tx), p3)
		e.Run()
		// p3 met p2 still queued, did not fit behind it and was trimmed; its
		// header then overtook p2 in the priority band.
		if !p3.Trimmed || pa.Stats().Trimmed != 1 || pa.Stats().MaxBytes != 1500 {
			t.Fatalf("p3 trimmed=%v, queue stats %+v: the packet offered at the serialization-end instant did not see p2 queued",
				p3.Trimmed, pa.Stats())
		}
		if got := ids(b); !reflect.DeepEqual(got, []uint64{1, 3, 2}) {
			t.Fatalf("transmit order %v, want [1 3 2]", got)
		}
		want := []units.Time{units.Time(tx + prop), units.Time(tx + hdr + prop), units.Time(tx + hdr + tx + prop)}
		if !reflect.DeepEqual(b.times, want) {
			t.Fatalf("arrivals at %v, want %v", b.times, want)
		}
	})

	t.Run("with nothing queued", func(t *testing.T) {
		e := sim.New()
		a, b := &sinkNode{id: 1}, &sinkNode{id: 2}
		pa, _ := Connect(a, b, 100*units.Gbps, prop, trimming, QueueConfig{}, nil)
		p1, p2, p3 := dataPkt(1, 1500), dataPkt(2, 1500), dataPkt(3, 1500)
		pa.Send(e, p1) // nothing behind it: no serialization-end event is pending
		offer(e, pa, units.Time(tx), p2)
		offer(e, pa, units.Time(tx), p3)
		e.Run()
		// Both arrivals of the instant found the link busy. Whichever ran
		// first waited in the queue, so the other did not fit and was trimmed.
		first, second := p2, p3
		if DeliveryKey(p3) < DeliveryKey(p2) {
			first, second = p3, p2
		}
		if first.Trimmed || !second.Trimmed || pa.Stats().MaxBytes != 1500 {
			t.Fatalf("first trimmed=%v second trimmed=%v stats %+v: the second arrival did not see the first queued",
				first.Trimmed, second.Trimmed, pa.Stats())
		}
		// The header goes out first (priority band), from the instant itself.
		if got, want := ids(b), []uint64{1, second.ID, first.ID}; !reflect.DeepEqual(got, want) {
			t.Fatalf("transmit order %v, want %v", got, want)
		}
		if got, want := b.times[1], units.Time(tx+hdr+prop); got != want {
			t.Fatalf("header arrived at %v, want %v: serialization did not resume at the instant the link fell free", got, want)
		}
	})

	t.Run("after the instant", func(t *testing.T) {
		e := sim.New()
		a, b := &sinkNode{id: 1}, &sinkNode{id: 2}
		pa, _ := Connect(a, b, 100*units.Gbps, prop, trimming, QueueConfig{}, nil)
		pa.Send(e, dataPkt(1, 1500))
		offer(e, pa, units.Time(tx)+1, dataPkt(2, 1500))
		e.Run()
		if e.Processed() != 3 { // the offer and two arrivals: an idle hop is one event
			t.Fatalf("%d events, want 3", e.Processed())
		}
		if got, want := b.times[1], units.Time(tx)+1+units.Time(tx+prop); got != want {
			t.Fatalf("arrival at %v, want %v", got, want)
		}
	})
}

// sender is what the oracle's nodes transmit through: a Port, or the
// reference model of one.
type sender interface {
	Send(e *sim.Engine, pkt *Packet)
}

// refPort is the test-only reference for Port: the per-packet scheduling the
// pipe replaced. Every packet gets a plain serialization-end event and then a
// delivery event of its own, keyed with its DeliveryKey.
type refPort struct {
	q     *queue
	busy  bool
	rate  units.BitRate
	delay units.Duration
	to    Node
}

func (p *refPort) Send(e *sim.Engine, pkt *Packet) {
	if p.q.enqueue(e.Now(), pkt) {
		p.tryTransmit(e)
	}
}

func (p *refPort) tryTransmit(e *sim.Engine) {
	if p.busy || p.q.empty() {
		return
	}
	pkt := p.q.pop()
	p.busy = true
	e.Schedule(e.Now().Add(p.rate.TransmitTime(pkt.Size)), func(e *sim.Engine) {
		p.busy = false
		e.ScheduleHandler(e.Now().Add(p.delay), DeliveryKey(pkt), sim.Event(func(e *sim.Engine) {
			p.to.Receive(e, pkt, nil)
		}), nil)
		p.tryTransmit(e)
	})
}

// dispatch is one packet arrival as the oracle compares it.
type dispatch struct {
	at   units.Time
	pkt  uint64
	node NodeID
}

// oracleNode logs every arrival and forwards it, if it has somewhere to.
type oracleNode struct {
	id     NodeID
	log    *[]dispatch
	out    sender
	onRecv func(e *sim.Engine, p *Packet)
}

func (n *oracleNode) ID() NodeID   { return n.id }
func (n *oracleNode) Name() string { return fmt.Sprintf("n%d", n.id) }
func (n *oracleNode) Receive(e *sim.Engine, p *Packet, _ *Port) {
	*n.log = append(*n.log, dispatch{e.Now(), p.ID, n.id})
	if n.onRecv != nil {
		n.onRecv(e, p)
	}
	if n.out != nil {
		n.out.Send(e, p)
	}
}

// oracleCase is one seeded scenario: two sources converging on a middle node
// whose egress toward the sink is slow and small, and an ACK path back from
// the sink to the first source.
type oracleCase struct {
	rate   [2]units.BitRate
	delay  [2]units.Duration
	bottle QueueConfig
	sends  []oracleSend
	// rtoAt arms the first source's retransmission timer for the first packet
	// it sent; 0 leaves it unarmed.
	rtoAt units.Time
}

type oracleSend struct {
	at   units.Time
	src  int
	id   uint64
	size units.ByteSize
}

func randomOracleCase(r *rand.Rand) oracleCase {
	rates := []units.BitRate{10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}
	sizes := []units.ByteSize{64, 256, 1000, 1500}
	var c oracleCase
	for i := range c.rate {
		c.rate[i] = rates[r.Intn(len(rates))]
		c.delay[i] = units.Duration(r.Intn(2000)) * units.Nanosecond
	}
	twins := r.Intn(2) == 0 // identical links and sends: same-instant arrivals at the middle node
	if twins {
		c.rate[1], c.delay[1] = c.rate[0], c.delay[0]
	}
	c.bottle = QueueConfig{Capacity: units.ByteSize(3000 + r.Intn(6000)), Trim: r.Intn(3) > 0}
	if r.Intn(2) == 0 {
		c.bottle.MarkLow, c.bottle.MarkHigh = 1500, 4500
	}
	id := uint64(0)
	for bursts := 2 + r.Intn(12); bursts > 0; bursts-- {
		src := r.Intn(2)
		size := sizes[r.Intn(len(sizes))]
		// Bursts start on multiples of the packet's own serialization time, so
		// some are offered at the very instant the source link falls free.
		at := units.Time(c.rate[src].TransmitTime(size)) * units.Time(r.Intn(40))
		for k := 0; k < 1+r.Intn(5); k++ {
			if r.Intn(4) == 0 {
				size = sizes[r.Intn(len(sizes))]
			}
			id++
			c.sends = append(c.sends, oracleSend{at, src, id, size})
			if twins {
				id++
				c.sends = append(c.sends, oracleSend{at, 1 - src, id, size})
			}
		}
	}
	return c
}

// run plays the case on real ports or on the reference and returns every
// arrival in dispatch order, the bottleneck queue's counters, and whether the
// retransmission timer fired.
func (c oracleCase) run(t *testing.T, real bool) (log []dispatch, bottle QueueStats, ackAt units.Time, rtoFired bool) {
	e := sim.New()
	var ports []*Port
	var bottleStats func() QueueStats
	link := func(a, b Node, rate units.BitRate, delay units.Duration, q QueueConfig) sender {
		if real {
			p, _ := Connect(a, b, rate, delay, q, QueueConfig{}, nil)
			ports = append(ports, p)
			bottleStats = p.Stats
			return p
		}
		p := &refPort{q: newQueue(q, nil), rate: rate, delay: delay, to: b}
		bottleStats = func() QueueStats { return p.q.Stats }
		return p
	}
	src := [2]*oracleNode{{id: 1, log: &log}, {id: 2, log: &log}}
	mid, sink := &oracleNode{id: 3, log: &log}, &oracleNode{id: 4, log: &log}
	var up [2]sender
	for i := range up {
		up[i] = link(src[i], mid, c.rate[i], c.delay[i], QueueConfig{})
	}
	back := link(sink, src[0], 100*units.Gbps, 700*units.Nanosecond, QueueConfig{})
	mid.out = link(mid, sink, 10*units.Gbps, 300*units.Nanosecond, c.bottle) // last: bottleStats reads this one

	// The sink acknowledges the first packet of source 0 to reach it; the
	// source's timer stands for its RTO.
	rto := sim.NewTimer(e, func(*sim.Engine) { rtoFired = true })
	if c.rtoAt > 0 {
		rto.Arm(c.rtoAt)
	}
	acked := false
	sink.onRecv = func(e *sim.Engine, p *Packet) {
		if p.Src == src[0].id && !acked {
			acked = true
			back.Send(e, &Packet{ID: 1 << 40, Kind: Ack, Size: ControlSize, FullSize: ControlSize})
		}
	}
	src[0].onRecv = func(e *sim.Engine, _ *Packet) {
		ackAt = e.Now()
		rto.Cancel()
	}
	for _, s := range c.sends {
		s := s
		e.Schedule(s.at, func(e *sim.Engine) {
			up[s.src].Send(e, &Packet{ID: s.id, Kind: Data, Size: s.size, FullSize: s.size, Src: src[s.src].id})
		})
	}

	for e.Step() {
		// A pipe with packets in it has its head in the heap, so the engine's
		// next event is never later than any packet's arrival (the shard
		// barrier computes its horizon from NextEventAt), and everything
		// behind a head is accounted as parked.
		next, _ := e.NextEventAt()
		var parked uint64
		for _, p := range ports {
			if p.pipe.n == 0 {
				continue
			}
			parked += uint64(p.pipe.n - 1)
			if head := p.pipe.head.at; head < next || head < e.Now() {
				t.Fatalf("%s: pipe head arrives at %v but the engine's next event is at %v (now %v): head not armed",
					p.Label(), head, next, e.Now())
			}
		}
		if e.Parked() != parked {
			t.Fatalf("engine counts %d parked events, pipes hold %d behind their heads", e.Parked(), parked)
		}
	}
	return log, bottleStats(), ackAt, rtoFired
}

// The oracle: whatever the sizes, rates and delays, with two links converging
// on one node, arrivals sharing an instant, and an ACK landing on the very
// instant its retransmission timer is due, the pipe delivers the same packets
// to the same nodes at the same times and in the same order as one delivery
// event per packet, and every queue decision downstream comes out the same.
func TestPipeDispatchMatchesPerPacketEvents(t *testing.T) {
	acks := 0
	for seed := int64(1); seed <= 300; seed++ {
		c := randomOracleCase(rand.New(rand.NewSource(seed)))
		// Learn when the ACK lands, then put the timer on that instant.
		_, _, c.rtoAt, _ = c.run(t, false)
		if c.rtoAt > 0 {
			acks++
		}
		wantLog, wantStats, _, wantRTO := c.run(t, false)
		gotLog, gotStats, _, gotRTO := c.run(t, true)
		if wantRTO {
			t.Fatalf("seed %d: reference let the timer beat its same-instant ACK", seed)
		}
		if gotRTO != wantRTO || gotStats != wantStats {
			t.Fatalf("seed %d: rto fired %v (want %v), bottleneck %+v (want %+v)", seed, gotRTO, wantRTO, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range wantLog {
				if i >= len(gotLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: dispatch %d differs: got %+v, want %+v (of %d/%d)",
						seed, i, gotLog[min(i, len(gotLog)-1)], wantLog[i], len(gotLog), len(wantLog))
				}
			}
			t.Fatalf("seed %d: %d dispatches, want %d", seed, len(gotLog), len(wantLog))
		}
	}
	if acks < 200 {
		t.Fatalf("only %d of 300 cases got an ACK back onto its timer's instant", acks)
	}
}

// nopNode discards what it receives.
type nopNode struct{ id NodeID }

func (n *nopNode) ID() NodeID                          { return n.id }
func (n *nopNode) Name() string                        { return "nop" }
func (n *nopNode) Receive(*sim.Engine, *Packet, *Port) {}

// BenchmarkPortHop is one hop, one event: idle, a packet offered to an idle
// port and its arrival at the far end; busy, 64 packets offered to one port
// at once and drained, where all but the first wait for the link and start
// late, from the arrivals ahead of them (ns/op is per packet in both).
func BenchmarkPortHop(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		e := sim.New()
		pa, _ := Connect(&nopNode{1}, &nopNode{2}, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
		pkt := dataPkt(1, 1500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa.Send(e, pkt)
			e.Step()
		}
		if e.Processed() != uint64(b.N) {
			b.Fatalf("%d events for %d hops", e.Processed(), b.N)
		}
	})
	b.Run("busy", func(b *testing.B) {
		const burst = 64
		e := sim.New()
		pa, _ := Connect(&nopNode{1}, &nopNode{2}, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
		pkts := make([]*Packet, burst)
		for i := range pkts {
			pkts[i] = dataPkt(uint64(i+1), 1500)
		}
		drain := func() {
			for _, pkt := range pkts {
				pa.Send(e, pkt)
			}
			e.Run()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += burst {
			drain()
		}
		if bursts := uint64((b.N + burst - 1) / burst); e.Processed() != bursts*burst {
			b.Fatalf("%d events for %d packets: a queued packet costs more than its arrival", e.Processed(), bursts*burst)
		}
	})
}

// BenchmarkLongHaulPipe keeps 16k packets in flight on one 1 ms link, as an
// inter-DC link does at line rate, and measures one send plus one arrival.
// However many are in flight, the link holds one entry in the event heap.
func BenchmarkLongHaulPipe(b *testing.B) {
	const onTheWire = 16384
	const size = 750                      // 60 ns at 100 Gb/s
	const spacing = 61 * units.Nanosecond // just under line rate: the port is idle at every send
	e := sim.New()
	sink := &sinkNode{id: 2}
	pa, _ := Connect(&nopNode{1}, sink, 100*units.Gbps, units.Millisecond, QueueConfig{}, QueueConfig{}, nil)
	pkts := make([]Packet, onTheWire)
	for i := range pkts {
		pkts[i] = Packet{ID: uint64(i + 1), Kind: Data, Size: size, FullSize: size}
		e.RunUntil(units.Time(i) * units.Time(spacing))
		pa.Send(e, &pkts[i])
	}
	sink.arrived, sink.times = make([]*Packet, 0, 1), make([]units.Time, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step() // the oldest packet arrives, one spacing after the one before it
		pkt := sink.arrived[0]
		sink.arrived, sink.times = sink.arrived[:0], sink.times[:0]
		pa.Send(e, pkt)
		if e.Pending() != 1 || pa.pipe.n != onTheWire {
			b.Fatalf("heap holds %d events for %d packets in flight, want 1 for %d", e.Pending(), pa.pipe.n, onTheWire)
		}
	}
}
