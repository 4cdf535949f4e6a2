package transport

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// slabWorld is one two-host link carrying slabFlows flows, made either by
// NewSender/NewReceiver or from one Slab.
type slabWorld struct {
	e   *sim.Engine
	snd [slabFlows]*Sender
	rcv [slabFlows]*Receiver
	got []slabDelivery // every new data packet, in delivery order
}

const slabFlows = 4

type slabDelivery struct {
	flow netsim.FlowID
	seq  int64
	at   units.Time
}

// sameFlows reports whether every flow of a and b is in the same state, down
// to the entries of its table (which hold the links of its flight and lost
// lists), the ends of those lists, and its bitset.
func sameFlows(a, b *slabWorld) bool {
	for i := range slabFlows {
		s, z := a.snd[i], b.snd[i]
		if s.Stats != z.Stats || s.cwnd != z.cwnd || s.inflight != z.inflight || s.doneAt != z.doneAt ||
			!slices.Equal(s.pkts, z.pkts) || s.flight != z.flight || s.lost != z.lost {
			return false
		}
		r, y := a.rcv[i], b.rcv[i]
		if r.Stats != y.Stats || r.bytes != y.bytes || r.doneAt != y.doneAt || !slices.Equal(r.received, y.received) {
			return false
		}
	}
	return true
}

// Flows made from one Slab behave as flows made one at a time by NewSender
// and NewReceiver: the same stats, deliveries in the same order, the same
// completion times, and the same entries in every array after every event.
// Each flow's arrays are its own. They are carved at the capacity a lone flow
// gets, and a table or bitset grown past its carve leaves its neighbours'
// entries as they were. Neither array outgrows its carve in a run, so the
// test grows each past its carve by hand at the end.
func TestPropertySlabMatchesHeap(t *testing.T) {
	f := func(seed int64, sizes [slabFlows]uint16, windows [slabFlows]uint8, queuePkts, reserve uint8) bool {
		var total [slabFlows]units.ByteSize
		var cfg [slabFlows]Config
		for i := range slabFlows {
			total[i] = units.ByteSize(sizes[i])*3 + 1
			cfg[i] = Config{InitWindow: units.ByteSize(windows[i]%12+1) * DefaultMSS,
				ExpectedRTT: 10 * units.Microsecond}
		}
		q := netsim.QueueConfig{Capacity: units.ByteSize(queuePkts%40+4) * DefaultMSS}
		build := func(sl *Slab) *slabWorld {
			w := &slabWorld{e: sim.New()}
			src, dst := netsim.NewHost(1, "src"), netsim.NewHost(2, "dst")
			netsim.Connect(src, dst, 10*units.Gbps, 2*units.Microsecond, q, q, rng.New(seed))
			for i := range slabFlows {
				id := netsim.FlowID(i + 1)
				if sl == nil {
					w.rcv[i] = NewReceiver(dst, id, src.ID(), total[i], nil)
					w.snd[i] = NewSender(src, id, dst.ID(), 0, total[i], cfg[i], nil)
				} else {
					w.rcv[i] = sl.NewReceiver(dst, id, src.ID(), total[i], nil)
					w.snd[i] = sl.NewSender(src, id, dst.ID(), 0, total[i], cfg[i], nil)
				}
				w.rcv[i].OnData = func(e *sim.Engine, p *netsim.Packet) {
					w.got = append(w.got, slabDelivery{p.Flow, p.Seq, e.Now()})
				}
				src.Bind(id, w.snd[i])
				dst.Bind(id, w.rcv[i])
			}
			for _, s := range w.snd {
				s.Start(w.e)
			}
			return w
		}
		// The zero slab makes every flow arrays of its own; a reservation
		// for every flow carves all of them from one array of each kind, and
		// one for half of them makes the rest arrays of their own.
		var sl Slab
		expected := []int{0, slabFlows, slabFlows / 2}[reserve%3]
		for i := range expected {
			sl.Expect(total[i])
		}
		if expected > 0 {
			sl.Reserve()
		}
		heap, slab := build(nil), build(&sl)
		if n := len(sl.senders.free) + len(sl.receivers.free) + len(sl.pkts.free) + len(sl.seen.free); n > 0 {
			t.Logf("%d entries reserved for %d flows and never carved", n, expected)
			return false
		}

		// Carved at a lone flow's capacity: no more, or growing would write
		// into the next flow's array.
		var carved [slabFlows]struct{ pkts, seen int }
		for i := range slabFlows {
			s, r, hs, hr := slab.snd[i], slab.rcv[i], heap.snd[i], heap.rcv[i]
			carved[i].pkts, carved[i].seen = cap(s.pkts), cap(r.received)
			if carved[i].pkts != cap(hs.pkts) || carved[i].seen != cap(hr.received) {
				t.Logf("flow %d carved table/bitset %+v, a lone flow gets %d/%d", i, carved[i],
					cap(hs.pkts), cap(hr.received))
				return false
			}
		}

		for steps := 0; heap.e.Step(); steps++ {
			if !slab.e.Step() || !sameFlows(heap, slab) || steps > 1_000_000 {
				t.Logf("step %d: the slab's flows diverge from the heap's", steps)
				return false
			}
		}
		if slab.e.Step() || !slices.Equal(heap.got, slab.got) {
			t.Logf("deliveries differ: %d heap, %d slab", len(heap.got), len(slab.got))
			return false
		}
		for i := range slabFlows {
			if !heap.snd[i].Done() || !heap.rcv[i].Done() || heap.snd[i].FCT() != slab.snd[i].FCT() {
				t.Logf("flow %d: done %v/%v, FCT %v heap, %v slab", i, heap.snd[i].Done(), heap.rcv[i].Done(),
					heap.snd[i].FCT(), slab.snd[i].FCT())
				return false
			}
		}

		// Grow each flow's arrays one past its carve; the others keep theirs.
		snapshot := func() (c [slabFlows]carves) {
			for i := range slabFlows {
				s, r := slab.snd[i], slab.rcv[i]
				c[i] = carves{slices.Clone(s.pkts[:cap(s.pkts)]), slices.Clone(r.received[:cap(r.received)])}
			}
			return c
		}
		for i := range slabFlows {
			before := snapshot()
			s, r := slab.snd[i], slab.rcv[i]
			s.state(int64(carved[i].pkts))
			r.received.add(64*int64(carved[i].seen) + 63)
			after := snapshot()
			for j := range slabFlows {
				b, a := before[j], after[j]
				if j != i && (!slices.Equal(b.pkts, a.pkts) || !slices.Equal(b.seen, a.seen)) {
					t.Logf("growing flow %d's arrays past their carves changed flow %d's", i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
}

// carves is a copy of one flow's two arrays, each to its capacity.
type carves struct {
	pkts []pktState
	seen seqSet
}

// A reservation holds exactly what its flows carve: a state per packet
// however the flow compares with its window, a bitset word per 64 packets.
// Making the flows after Reserve allocates nothing beyond Reserve's four
// arrays and leaves no entry of them uncarved.
func TestSlabReservesWhatItsFlowsCarve(t *testing.T) {
	src, dst := netsim.NewHost(1, "src"), netsim.NewHost(2, "dst")
	flows := [...]struct {
		total units.ByteSize
		cfg   Config
	}{
		{3 * DefaultMSS, Config{InitWindow: 100 * DefaultMSS}}, // shorter than its window
		{40 * units.MB, Config{InitWindow: 10 * DefaultMSS}},   // far longer than its window
		{20 * DefaultMSS, Config{InitWindow: 500}},             // a window under one packet
		{64*DefaultMSS + 1, Config{}},                          // a zero Config; a second bitset word
		{0, Config{}},                                          // nothing to send
	}
	var snd [len(flows)]*Sender
	var rcv [len(flows)]*Receiver
	var left int
	// Settle the collector first: a test binary's first cycle landing in the
	// measured call charges it the runtime's own allocations.
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() {
		var sl Slab
		for _, f := range flows {
			sl.Expect(f.total)
		}
		sl.Reserve()
		for i, f := range flows {
			id := netsim.FlowID(i + 1)
			rcv[i] = sl.NewReceiver(dst, id, src.ID(), f.total, nil)
			snd[i] = sl.NewSender(src, id, dst.ID(), 0, f.total, f.cfg, nil)
		}
		left = len(sl.senders.free) + len(sl.receivers.free) + len(sl.pkts.free) + len(sl.seen.free)
	})
	if allocs > 4 || left > 0 {
		t.Errorf("reserving and making %d flows: %.0f allocations (want <= 4), %d entries never carved",
			len(flows), allocs, left)
	}
	if got, want := cap(snd[1].pkts), int((40*units.MB+DefaultMSS-1)/DefaultMSS); got != want {
		t.Errorf("a 40 MB flow: table carved at %d states, want %d", got, want)
	}
}

// FirstWindowPkts is the number of data packets Start transmits before the
// engine runs: what a run reserves in the fabric's packet pool for a batch of
// senders that start together.
func TestFirstWindowPktsIsWhatStartSends(t *testing.T) {
	const mss = DefaultMSS
	for _, c := range []struct {
		name  string
		total units.ByteSize
		cfg   Config
	}{
		{"shorter than its window", 5 * mss, Config{InitWindow: 10 * mss}},
		{"a window of whole packets", 40 * mss, Config{InitWindow: 10 * mss}},
		{"a window under one packet", 20 * mss, Config{InitWindow: 500}},
		{"a window not a multiple of the MSS", 40 * mss, Config{InitWindow: 7*mss + 750}},
		{"a short last packet inside the window", 3*mss + 100, Config{InitWindow: 10 * mss}},
		{"a short last packet that fills the window", 3*mss + 700, Config{InitWindow: 3*mss + 700}},
		{"a short last packet past the window", 4*mss + 100, Config{InitWindow: 4*mss + 50}},
		{"a zero window", 64 * mss, Config{}},
		{"a zero-byte flow", 0, Config{InitWindow: 10 * mss}},
	} {
		p := newPair(t, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
		snd := NewSender(p.src, 1, p.dst.ID(), 0, c.total, c.cfg, nil)
		snd.Start(p.e)
		if got, want := snd.Stats.PktsSent, uint64(FirstWindowPkts(c.total, c.cfg)); got != want {
			t.Errorf("%s (%d B, window %d B): Start sent %d packets, FirstWindowPkts says %d",
				c.name, c.total, c.cfg.InitWindow, got, want)
		}
	}
}
