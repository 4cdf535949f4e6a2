package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// refList is the plain-slice reference for one packet list.
type refList []*Packet

func (r *refList) push(p *Packet) { *r = append(*r, p) }

func (r *refList) pop() *Packet {
	if len(*r) == 0 {
		return nil
	}
	p := (*r)[0]
	*r = (*r)[1:]
	return p
}

func (r refList) bytes() (sum units.ByteSize) {
	for _, p := range r {
		sum += p.Size
	}
	return sum
}

// listCoverage counts the transitions the seeds are required to reach.
type listCoverage struct {
	ontoEmpty, emptied int // pushes onto an empty list, pops that emptied one
	reused, fresh      int // NewPacket from a released packet, from a new chunk
	crossed            int // a release reissued by the other host
	overtakes          int // a control packet popped past waiting data
}

// listWorld is a two-hop path held by hand: a host's packets wait in the first
// port's queue, cross its pipe, wait in the second port's queue and are
// released. The ports never see an engine, so nothing moves but by the test's
// own pushes and pops, each mirrored on a slice.
type listWorld struct {
	t     *testing.T
	cov   *listCoverage
	hosts [2]*Host // share one pool, as a fabric's hosts do; hosts[0] feeds the path
	pool  *PacketPool
	hop   [2]*Port
	q     [2]struct{ data, prio refList }
	pipe  refList
	free  refList // released and not yet reissued, oldest first: NewPacket takes the newest
	seen  map[*Packet]bool
	by    map[*Packet]*Host // the host that released a packet on the free list
	clock units.Time
}

// count walks l and returns how many packets it holds.
func (l *pktList) count() (n int) {
	for p := l.head; p != nil; p = p.next {
		n++
	}
	return n
}

// sameList checks a list against its reference: the count and order by
// walking the links, and the tail.
func (w *listWorld) sameList(name string, l *pktList, ref refList) {
	w.t.Helper()
	if n := l.count(); n != len(ref) {
		w.t.Fatalf("%s: holds %d, reference holds %d", name, n, len(ref))
	}
	p := l.head
	for i, want := range ref {
		if p != want {
			w.t.Fatalf("%s: entry %d is %v, want %v", name, i, p, want)
		}
		if i == len(ref)-1 && (l.tail != p || p.next != nil) {
			w.t.Fatalf("%s: last entry %v is not the tail %v, or links on to %v", name, p, l.tail, p.next)
		}
		p = p.next
	}
	if len(ref) == 0 && l.head != nil {
		w.t.Fatalf("%s: empty by count with head %v", name, l.head)
	}
}

func (w *listWorld) check() {
	w.t.Helper()
	for i, port := range w.hop {
		w.sameList("data band", &port.q.data.pktList, w.q[i].data)
		w.sameList("priority band", &port.q.prio.pktList, w.q[i].prio)
		if got, want := port.q.data.bytes, w.q[i].data.bytes(); got != want || port.QueuedBytes() != want {
			w.t.Fatalf("hop %d: data band holds %v (QueuedBytes %v), want %v", i, got, port.QueuedBytes(), want)
		}
		if got, want := port.q.prio.bytes, w.q[i].prio.bytes(); got != want {
			w.t.Fatalf("hop %d: priority band holds %v, want %v", i, got, want)
		}
		if port.q.empty() != (len(w.q[i].data)+len(w.q[i].prio) == 0) {
			w.t.Fatalf("hop %d: empty() = %v with %d+%d packets", i, port.q.empty(), len(w.q[i].data), len(w.q[i].prio))
		}
	}
	w.sameList("pipe", &w.hop[0].pipe, w.pipe)
	n := 0
	for p := w.pool.free; p != nil && n < len(w.free); p, n = p.next, n+1 {
		if want := w.free[len(w.free)-1-n]; p != want {
			w.t.Fatalf("free list: entry %d is %p, want %p (newest release first)", n, p, want)
		}
	}
	if n != len(w.free) {
		w.t.Fatalf("free list ends after %d packets, %d were released", n, len(w.free))
	}
}

// popped checks what a list handed back against the reference's pop.
func (w *listWorld) popped(name string, got, want *Packet) {
	w.t.Helper()
	if got != want {
		w.t.Fatalf("%s: popped %v, want %v", name, got, want)
	}
	if got != nil && got.next != nil {
		w.t.Fatalf("%s: popped packet %v still links to %v", name, got, got.next)
	}
}

func (w *listWorld) enqueue(hop int, p *Packet) {
	ref := &w.q[hop].data
	if p.IsControl() {
		ref = &w.q[hop].prio
	}
	if len(*ref) == 0 {
		w.cov.ontoEmpty++
	}
	if !w.hop[hop].q.enqueue(w.clock, p, nil) {
		w.t.Fatalf("hop %d: unbounded queue refused %v", hop, p)
	}
	ref.push(p)
}

func (w *listWorld) dequeue(hop int) *Packet {
	ref := &w.q[hop].prio
	if len(*ref) == 0 {
		ref = &w.q[hop].data
	} else if len(w.q[hop].data) > 0 {
		w.cov.overtakes++
	}
	want := ref.pop()
	if want != nil && len(*ref) == 0 {
		w.cov.emptied++
	}
	got := w.hop[hop].q.pop()
	w.popped("queue", got, want)
	return got
}

// step applies one random operation.
func (w *listWorld) step(r *rand.Rand) {
	w.clock++
	switch op := r.Intn(10); {
	case op < 4: // either host sends: a pooled packet, or now and then a literal
		var p *Packet
		if r.Intn(8) == 0 {
			p = &Packet{ID: uint64(w.clock)}
		} else {
			h := w.hosts[r.Intn(2)]
			p = h.NewPacket()
			if p.Src != h.ID() || NodeID(p.ID>>32) != h.ID() {
				w.t.Fatalf("%s's NewPacket returned %v with ID %#x", h.Name(), p, p.ID)
			}
			if n := len(w.free); n > 0 {
				if p != w.free[n-1] {
					w.t.Fatalf("NewPacket returned %p, want the newest release %p", p, w.free[n-1])
				}
				w.free = w.free[:n-1]
				w.cov.reused++
				if w.by[p] != h {
					w.cov.crossed++
				}
			} else if w.seen[p] {
				w.t.Fatalf("NewPacket handed out %p, which is still in use", p)
			} else {
				w.cov.fresh++
			}
			w.seen[p] = true
			if p.next != nil || p.at != 0 {
				w.t.Fatalf("NewPacket returned a packet still linked: next %v at %v", p.next, p.at)
			}
		}
		p.Kind, p.Size = Data, units.ByteSize(64+r.Intn(1437))
		if r.Intn(3) == 0 {
			p.Kind, p.Size = Ack, ControlSize
		}
		w.enqueue(0, p)
	case op < 6: // the first hop starts a packet onto the wire
		if p := w.dequeue(0); p != nil {
			p.at = w.clock
			w.hop[0].pipe.push(p, inPipe)
			w.pipe.push(p)
		}
	case op < 8: // the head of the pipe arrives and joins the next queue
		want := w.pipe.pop()
		if want == nil {
			return
		}
		got := w.hop[0].pipe.pop()
		w.popped("pipe", got, want)
		if next := w.hop[0].pipe.head; next != nil && next.at <= got.at {
			w.t.Fatalf("pipe: head due at %v behind a packet that arrived at %v", next.at, got.at)
		}
		w.enqueue(1, got)
	default: // the far end consumes a packet, at either host
		if p := w.dequeue(1); p != nil {
			pooled := p.pooled
			h := w.hosts[r.Intn(2)]
			h.Release(p)
			if pooled {
				w.free.push(p)
				w.by[p] = h
			}
		}
	}
}

// The three lists that run through the packets (queue bands, pipe, the
// fabric's free list) against plain slices: whatever the interleaving, every
// list holds the same packets in the same order with the same count and bytes,
// across empty and non-empty and back, a packet leaves a list with its link
// cleared, and released packets are reissued newest first, whichever of the
// two hosts sharing the pool released one and whichever takes it.
func TestPropertyPacketListsMatchSliceReference(t *testing.T) {
	var cov listCoverage
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := &listWorld{t: t, cov: &cov, pool: new(PacketPool), seen: map[*Packet]bool{}, by: map[*Packet]*Host{}}
		for i := range w.hosts {
			w.hosts[i] = new(Host)
			w.hosts[i].Init(NodeID(i+1), Name{Prefix: "h", Index: int32(i)}, w.pool)
		}
		b, c := &nopNode{3}, &nopNode{4}
		w.hop[0], _ = Connect(w.hosts[0], b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
		w.hop[1], _ = Connect(b, c, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
		for ops := 50 + r.Intn(400); ops > 0; ops-- {
			w.step(r)
			w.check()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
	if cov.ontoEmpty == 0 || cov.emptied == 0 || cov.reused == 0 || cov.fresh == 0 || cov.crossed == 0 || cov.overtakes == 0 {
		t.Errorf("the seeds did not reach every transition: %+v", cov)
	}
}

// A list through the packets has nothing of its own to allocate: not on the
// first Send of a fresh port, and not on the way to a 10,000-deep band.
func TestPacketListsAllocateNothing(t *testing.T) {
	const runs = 20
	e := sim.New()
	pkt := dataPkt(1, 1500)
	var fresh []*Port
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		p, _ := Connect(&nopNode{1}, &nopNode{2}, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
		fresh = append(fresh, p)
	}
	if n := testing.AllocsPerRun(runs, func() {
		fresh[0].Send(e, pkt)
		fresh = fresh[1:]
		e.Run() // the arrival's event record goes back to the engine
	}); n != 0 {
		t.Errorf("the first Send on a fresh port allocates %.0f times, want 0", n)
	}

	const depth = 10_000
	pkts := make([]Packet, depth)
	for i := range pkts {
		pkts[i] = Packet{ID: uint64(i + 1), Kind: Data, Size: 1500, FullSize: 1500}
	}
	if n := testing.AllocsPerRun(1, func() {
		q := queue{}
		for i := range pkts {
			q.enqueue(0, &pkts[i], nil)
		}
		for i := range pkts {
			if p := q.pop(); p != &pkts[i] {
				t.Fatalf("pop %d of a %d-deep band returned %v", i, depth, p)
			}
		}
	}); n != 0 {
		t.Errorf("filling a band to %d packets and draining it allocates %.0f times, want 0", depth, n)
	}
}

// BenchmarkQueueDeep is the per-packet cost of a deep band: each round fills a
// cold band (a new queue, as a ToR's is when an incast starts) to 10,000
// packets, the depth of the 17 MB queues, and drains it.
func BenchmarkQueueDeep(b *testing.B) {
	const depth = 10_000
	pkts := make([]Packet, depth)
	for i := range pkts {
		pkts[i] = Packet{ID: uint64(i + 1), Kind: Data, Size: 1500, FullSize: 1500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		q := queue{}
		for j := range pkts {
			q.enqueue(0, &pkts[j], nil)
		}
		for !q.empty() {
			q.pop()
		}
	}
}
