package netsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// 17,664 ports make a fan-in fabric, so one malloc size class up is +0.56 MB
// per build: what the lazy port needs to know (the engine, the byte time) has
// to fit in the class the port is in.
//
// The packet pays for that class. Its two bands and its pipe are lists through
// the packets (next, at: 80 -> 96 B, one class up), which took three slices
// and their indices out of the port (352 -> 320 B class). Those 16 B replace
// the 16 B pipe slot and the 8 B queue slot every waiting packet had in a ring,
// each paid about twice over by doubling: do not "fix" the packet back to 80.
// The port itself is 280 B, 40 B below the top of its class; the bound is its
// size, not the class, so a field that takes that room is a decision.
func TestPortStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Port{}); got > 280 {
		t.Fatalf("Port is %d bytes, want <= 280", got)
	}
	if got := unsafe.Sizeof(Packet{}); got > 96 {
		t.Fatalf("Packet is %d bytes, want <= 96", got)
	}
	if got := unsafe.Sizeof(Host{}); got > 128 {
		t.Fatalf("Host is %d bytes, want <= 128", got)
	}
}

// chunkSink keeps TestPacketChunkFillsItsSizeClass's chunk on the heap.
var chunkSink []Packet

// A pool allocates packets packetChunk at a time, and the runtime charges a
// chunk its whole size class, plus an 8 B header on a pointer-holding object
// over 512 B: 16 packets (1,536 B) are charged 1,792 B, and 342 (32,832 B,
// past the largest small class) 40,960. The chunk has to fill its class to
// within 1%.
func TestPacketChunkFillsItsSizeClass(t *testing.T) {
	want := uint64(packetChunk * unsafe.Sizeof(Packet{}))
	var before, after runtime.MemStats
	charged := ^uint64(0)
	for i := 0; i < 5; i++ { // the least of a few reads: nothing else counts
		runtime.ReadMemStats(&before)
		chunkSink = make([]Packet, packetChunk)
		runtime.ReadMemStats(&after)
		charged = min(charged, after.TotalAlloc-before.TotalAlloc)
	}
	chunkSink = nil
	if charged*100 >= want*101 {
		t.Fatalf("a chunk of %d packets (%d B) is charged %d B, want under %d", packetChunk, want, charged, want*101/100)
	}
}

// Reserve allocates packets reserveChunk at a time, a large object, which
// the runtime charges in whole 8 KiB pages with no header: the chunk has to
// fill its pages exactly, and be past the largest small size class (32 KiB).
func TestReserveChunkIsPageExact(t *testing.T) {
	const page, largestSmall = 8 << 10, 32 << 10
	size := reserveChunk * unsafe.Sizeof(Packet{})
	if size%page != 0 || size <= largestSmall {
		t.Fatalf("a reserve chunk of %d packets is %d B, want a multiple of %d B above %d B", reserveChunk, size, page, largestSmall)
	}
}

// Serialization by multiply is TransmitTime exactly wherever Connect chooses
// it, and the rates it cannot serve fall back to TransmitTime itself.
func TestSerializationTimeMatchesTransmitTime(t *testing.T) {
	for _, tc := range []struct {
		rate      units.BitRate
		psPerByte int64
	}{
		{units.Gbps, 8000}, {10 * units.Gbps, 800}, {25 * units.Gbps, 320}, {40 * units.Gbps, 200},
		{100 * units.Gbps, 80}, {400 * units.Gbps, 20}, {3 * units.Gbps, 0}, {7 * units.Mbps, 0},
	} {
		for _, size := range []units.ByteSize{1, 64, 1500, 9000} {
			p, _ := Connect(&nopNode{1}, &nopNode{2}, tc.rate, 0, QueueConfig{}, QueueConfig{}, nil)
			if p.psPerByte != tc.psPerByte {
				t.Fatalf("%v: %d ps per byte, want %d", tc.rate, p.psPerByte, tc.psPerByte)
			}
			p.Send(sim.New(), dataPkt(1, size)) // idle at time zero: freeAt is the serialization time
			if want := tc.rate.TransmitTime(size); p.freeAt != units.Time(want) {
				t.Errorf("%v, %d B: link busy until %v, TransmitTime %v", tc.rate, size, p.freeAt, want)
			}
		}
	}
	if p, _ := Connect(&nopNode{1}, &nopNode{2}, 0, 0, QueueConfig{}, QueueConfig{}, nil); p.psPerByte != 0 {
		t.Errorf("a link of no rate got %d ps per byte", p.psPerByte)
	}
}

// eagerPort is the test-only reference for Port's queue side: the port as it
// was while every serialization of a backlogged link ended in an event of its
// own. transmit pops the queue at the instant the link falls free, from a
// plain txEnd event armed for exactly that instant whenever something waits
// behind the packet in service.
type eagerPort struct {
	to         Node
	rate       units.BitRate
	delay      units.Duration
	q          queue
	freeAt     units.Time
	pipe       pktList
	txEndArmed bool

	// ends collects every freeAt, so that a second pass can aim offers and
	// probes at those instants; onEnd counts the offers that hit one.
	ends  []units.Time
	onEnd int
}

func (p *eagerPort) Send(e *sim.Engine, pkt *Packet) {
	if e.Now() == p.freeAt {
		p.onEnd++
	}
	if !p.q.enqueue(e.Now(), pkt) {
		return
	}
	switch {
	case p.txEndArmed:
	case e.Now() > p.freeAt:
		p.transmit(e)
	default:
		p.armTxEnd(e)
	}
}

func (p *eagerPort) transmit(e *sim.Engine) {
	pkt := p.q.pop()
	p.freeAt = e.Now().Add(p.rate.TransmitTime(pkt.Size))
	p.ends = append(p.ends, p.freeAt)
	pkt.at = p.freeAt.Add(p.delay)
	if p.pipe.push(pkt, inPipe); p.pipe.n == 1 {
		e.ScheduleHandler(pkt.at, DeliveryKey(pkt), (*eagerArrival)(p), nil)
	} else {
		e.Park()
	}
	if !p.q.empty() {
		p.armTxEnd(e)
	}
}

func (p *eagerPort) armTxEnd(e *sim.Engine) {
	p.txEndArmed = true
	e.ScheduleHandler(p.freeAt, 0, (*eagerTxEnd)(p), nil)
}

type eagerTxEnd eagerPort

func (t *eagerTxEnd) Fire(e *sim.Engine, _ any) {
	p := (*eagerPort)(t)
	p.txEndArmed = false
	p.transmit(e)
}

type eagerArrival eagerPort

func (a *eagerArrival) Fire(e *sim.Engine, _ any) {
	p := (*eagerPort)(a)
	pkt := p.pipe.pop()
	if p.pipe.n > 0 {
		e.Unpark(p.pipe.head.at, DeliveryKey(p.pipe.head), a, nil)
	}
	p.to.Receive(e, pkt, nil)
}

// portOp is one step of a seeded schedule against a port.
type portOp struct {
	at   units.Time
	what byte // 'o' offer, 'q' QueuedBytes probe
	id   uint64
	size units.ByteSize
	ctl  bool // the offer is an ACK, not data
}

// portLog is one observation: an offer's fate ('o'), an arrival at the far
// end ('a'), or a probe ('q').
type portLog struct {
	what            byte
	at              units.Time // when it was observed
	start, arrive   units.Time // 'a': serialization start and arrival
	pkt             uint64
	size            units.ByteSize
	trimmed, marked bool
	dropped         bool           // 'o'
	queued          units.ByteSize // 'q'
}

// lazyCase is one seeded scenario for a single port.
type lazyCase struct {
	rate    units.BitRate
	delay   units.Duration
	cfg     QueueConfig
	markSrc int64 // seed of the marking source; 0: none
	ops     []portOp
}

func randomLazyCase(r *rand.Rand) lazyCase {
	rates := []units.BitRate{3 * units.Gbps, 10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}
	sizes := []units.ByteSize{64, 256, 1000, 1500, 1500, 9000}
	c := lazyCase{rate: rates[r.Intn(len(rates))]}
	ser := c.rate.TransmitTime(1500)
	switch r.Intn(3) {
	case 1: // shorter than any serialization: the pipe empties between packets
		c.delay = 1 + units.Duration(r.Int63n(int64(c.rate.TransmitTime(64))))
	case 2: // several packets in flight
		c.delay = ser * units.Duration(2+r.Intn(20))
	}
	if r.Intn(4) > 0 {
		c.cfg.Capacity = units.ByteSize(3000 + r.Intn(20000))
		c.cfg.Trim = r.Intn(2) == 0
		if r.Intn(2) == 0 {
			c.cfg.MarkLow, c.cfg.MarkHigh = c.cfg.Capacity/4, 3*c.cfg.Capacity/4
			c.markSrc = r.Int63n(3) // 0 keeps the deterministic threshold
		}
	}
	var at units.Time
	var id uint64
	for bursts := 4 + r.Intn(20); bursts > 0; bursts-- {
		switch r.Intn(4) {
		case 0: // same instant as the last burst
		case 1:
			at = at.Add(units.Duration(r.Int63n(int64(ser))))
		case 2: // on the grid of full-size serializations
			at = at.Add(ser * units.Duration(1+r.Intn(4)))
		case 3: // long enough for the port to drain
			at = at.Add(ser*units.Duration(r.Intn(40)) + c.delay)
		}
		for k := 1 + r.Intn(8); k > 0; k-- {
			id++
			c.ops = append(c.ops, portOp{at: at, what: 'o', id: id, size: sizes[r.Intn(len(sizes))], ctl: r.Intn(5) == 0})
		}
	}
	for probes := 3 + r.Intn(6); probes > 0; probes-- {
		c.ops = append(c.ops, portOp{at: units.Time(r.Int63n(int64(at) + 1)), what: 'q'})
	}
	return c
}

// aim adds offers and probes at some of the instants a serialization ended
// in a first pass: an offer there meets the link at the very end of its busy
// period, and a probe reads the queue just before the pop.
func (c *lazyCase) aim(r *rand.Rand, ends []units.Time) {
	id := uint64(1 << 20)
	for n := min(len(ends), 2+r.Intn(6)); n > 0; n-- {
		at := ends[r.Intn(len(ends))]
		for k := r.Intn(4); k > 0; k-- {
			id++
			c.ops = append(c.ops, portOp{at: at, what: 'o', id: id, size: 1500, ctl: r.Intn(4) == 0})
		}
		if r.Intn(2) == 0 {
			c.ops = append(c.ops, portOp{at: at, what: 'q'})
		}
	}
}

// lazyCoverage counts the corners the seeds are required to reach.
type lazyCoverage struct {
	zeroDelayTxEnd int // a txEnd armed on a port with a pipe: the zero-delay fallback
	multiPop       int // one catch-up that started two or more packets
	ctlOvertakes   int // a lazy pop that took a control packet past waiting data
	offersOnEnd    int // offers at an instant equal to freeAt
	probesOnEnd    int // probes at an instant equal to freeAt
	parked         int // steps with packets parked behind a pipe head
}

// portUnderTest is what a schedule drives: the real Port or the reference.
type portUnderTest interface {
	sender
	Stats() QueueStats
	QueuedBytes() units.ByteSize
}

func (p *eagerPort) Stats() QueueStats           { return p.q.Stats }
func (p *eagerPort) QueuedBytes() units.ByteSize { return p.q.bytesQueued() }

// logSink is the far end of the port: it logs every arrival, with the start
// of its serialization worked back from the arrival time.
type logSink struct {
	nopNode
	rate  units.BitRate
	delay units.Duration
	log   *[]portLog
}

func (s *logSink) Receive(e *sim.Engine, p *Packet, _ *Port) {
	start := e.Now().Add(-s.delay - s.rate.TransmitTime(p.Size))
	*s.log = append(*s.log, portLog{what: 'a', at: e.Now(), start: start, arrive: e.Now(),
		pkt: p.ID, size: p.Size, trimmed: p.Trimmed, marked: p.ECN})
}

// portOpFire runs one op of the schedule against the port.
type portOpFire struct {
	port portUnderTest
	log  *[]portLog
}

func (f portOpFire) Fire(e *sim.Engine, arg any) {
	op := arg.(*portOp)
	switch op.what {
	case 'o':
		pkt := &Packet{ID: op.id, Kind: Data, Size: op.size, FullSize: op.size}
		if op.ctl {
			pkt.Kind, pkt.Size, pkt.FullSize = Ack, ControlSize, ControlSize
		}
		before := f.port.Stats()
		f.port.Send(e, pkt)
		after := f.port.Stats()
		*f.log = append(*f.log, portLog{what: 'o', at: e.Now(), pkt: pkt.ID, size: pkt.Size, trimmed: pkt.Trimmed,
			marked: pkt.ECN, dropped: after.Dropped > before.Dropped})
	case 'q':
		*f.log = append(*f.log, portLog{what: 'q', at: e.Now(), queued: f.port.QueuedBytes()})
	}
}

// run plays the case on the real port (checking its invariants after every
// event and counting coverage) or on the reference, and returns the log, the
// queue's counters and the reference port.
func (c lazyCase) run(t *testing.T, lazy bool, cov *lazyCoverage) ([]portLog, QueueStats, *eagerPort) {
	e := sim.New()
	var log []portLog
	sink := &logSink{nopNode: nopNode{2}, rate: c.rate, delay: c.delay, log: &log}
	var src *rng.Source
	if c.markSrc != 0 {
		src = rng.New(c.markSrc)
	}
	var port portUnderTest
	var real *Port
	var ref *eagerPort
	if lazy {
		real, _ = Connect(&nopNode{1}, sink, c.rate, c.delay, c.cfg, QueueConfig{}, nil)
		real.q.src = src
		port = real
	} else {
		ref = &eagerPort{to: sink, rate: c.rate, delay: c.delay, q: queue{cfg: c.cfg, src: src}, freeAt: -1}
		port = ref
	}
	// Offers are keyed like the arrivals they stand for; the rest are plain
	// and, scheduled up front, run before any txEnd of their instant.
	ops := append([]portOp(nil), c.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for i := range ops {
		key := uint64(0)
		if ops[i].what == 'o' {
			key = mix64(ops[i].id)
		}
		e.ScheduleHandler(ops[i].at, key, portOpFire{port, &log}, &ops[i])
	}
	if !lazy {
		e.Run()
		return log, port.Stats(), ref
	}

	queued := func() (data, prio int) { return real.q.data.n, real.q.prio.n }
	for {
		data, prio := queued()
		enqueued := real.q.Stats.Enqueued
		if !e.Step() {
			break
		}
		dataNow, prioNow := queued()
		pops := data + prio + int(real.q.Stats.Enqueued-enqueued) - dataNow - prioNow
		accepted := real.q.Stats.Enqueued > enqueued
		// An accepted offer to an idle link is popped by transmit, not late.
		if pops >= 3 || (pops == 2 && !accepted) {
			cov.multiPop++
		}
		if c.delay > 0 && prioNow < prio && data > 0 {
			cov.ctlOvertakes++
		}
		if real.txEndArmed {
			cov.zeroDelayTxEnd++
			if c.delay != 0 {
				t.Fatalf("txEnd armed on a link of delay %v", c.delay)
			}
		}
		if dataNow+prioNow > 0 && real.pipe.n == 0 && !real.txEndArmed {
			t.Fatalf("at %v: %d packets queued with the pipe empty and no txEnd armed: stranded", e.Now(), dataNow+prioNow)
		}
		if behind := uint64(max(real.pipe.n-1, 0)); e.Parked() != behind {
			t.Fatalf("at %v: engine counts %d parked, pipe holds %d behind its head", e.Now(), e.Parked(), behind)
		} else if behind > 0 {
			cov.parked++
		}
		if real.pipe.n > 0 {
			next, _ := e.NextEventAt()
			if head := real.pipe.head.at; head < e.Now() || head < next {
				t.Fatalf("at %v: pipe head due at %v, engine's next event at %v", e.Now(), head, next)
			}
		}
	}
	if data, prio := queued(); data+prio != 0 || real.pipe.n != 0 || real.QueuedBytes() != 0 {
		t.Fatalf("engine drained with %d+%d packets queued and %d in the pipe", data, prio, real.pipe.n)
	}
	return log, port.Stats(), nil
}

// The lazy port against the eager reference: whatever is offered, whenever,
// the same packets start serializing at the same instants, arrive at the same
// instants, are trimmed, marked and dropped alike, and every occupancy probe
// reads the same value, although the real port runs no event when a
// serialization ends.
func TestPropertyLazyPortMatchesEagerReference(t *testing.T) {
	var cov lazyCoverage
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomLazyCase(r)
		_, _, first := c.run(t, false, nil)
		c.aim(r, first.ends)
		want, wantStats, ref := c.run(t, false, nil)
		got, gotStats, _ := c.run(t, true, &cov)
		cov.offersOnEnd += ref.onEnd
		for _, l := range want {
			i := sort.Search(len(ref.ends), func(i int) bool { return ref.ends[i] >= l.at })
			if l.what == 'q' && i < len(ref.ends) && ref.ends[i] == l.at {
				cov.probesOnEnd++
			}
		}
		if gotStats != wantStats {
			t.Errorf("seed %d: queue stats %+v, want %+v", seed, gotStats, wantStats)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Errorf("seed %d (%+v, delay %v): entry %d of %d/%d differs:\n got %+v\nwant %+v",
						seed, c.cfg, c.delay, i, len(got), len(want), got[min(i, len(got)-1)], want[i])
					return false
				}
			}
			t.Errorf("seed %d: %d log entries, want %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
	if cov.zeroDelayTxEnd == 0 || cov.multiPop == 0 || cov.ctlOvertakes == 0 || cov.offersOnEnd == 0 ||
		cov.probesOnEnd == 0 || cov.parked == 0 {
		t.Errorf("the seeds did not reach every corner of the lazy port: %+v", cov)
	}
}
