package transport

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// mustPanic runs f, which has to panic, and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// live returns the queued items, oldest first; valid until the next push.
func (q *queue) live() []int64 { return q.items[q.head:] }

// tap is a node spliced into a pair's link beside src. It records the
// sequence of every data packet src sends, in order, into *sent and passes the
// packet on toward dst, or, where the link is cut (toDst nil), hands it back to
// src's pool. What comes back from dst it passes to src. Its link to src
// serializes a packet in a picosecond over no distance, so the tap sees each
// transmission a few picoseconds after src makes it.
type tap struct {
	src          *netsim.Host
	sent         *[]int64
	toSrc, toDst *netsim.Port
}

func (t *tap) ID() netsim.NodeID { return 3 }
func (t *tap) Name() string      { return "tap" }

func (t *tap) Receive(e *sim.Engine, p *netsim.Packet, from *netsim.Port) {
	if from != t.toSrc { // on its way back from dst
		t.toSrc.Send(e, p)
		return
	}
	if p.Kind == netsim.Data {
		*t.sent = append(*t.sent, p.Seq)
	}
	if t.toDst == nil {
		t.src.Release(p)
		return
	}
	t.toDst.Send(e, p)
}

// newTappedPair is newPair with a tap beside src recording into *sent; with
// cut set nothing reaches dst.
func newTappedPair(t testing.TB, rate units.BitRate, delay units.Duration, q netsim.QueueConfig,
	sent *[]int64, cut bool) *pair {
	t.Helper()
	p := &pair{e: sim.New(), src: netsim.NewHost(1, "src"), dst: netsim.NewHost(2, "dst")}
	tp := &tap{src: p.src, sent: sent}
	_, tp.toSrc = netsim.Connect(p.src, tp, 1<<62, 0, netsim.QueueConfig{}, netsim.QueueConfig{}, nil)
	if !cut {
		tp.toDst, _ = netsim.Connect(tp, p.dst, rate, delay, q, q, rng.New(99))
	}
	return p
}

// flight walks s's flight list from its head and returns the sequences on
// it, checking the walk back from its tail gives the same ones in reverse.
func flight(s *Sender) ([]int64, error) {
	var fwd, back []int64
	for at := s.flightHead; at != 0; at = s.pkts[at-1].next {
		if len(fwd) > len(s.pkts) {
			return nil, fmt.Errorf("the list from the head loops: %v...", fwd[:8])
		}
		fwd = append(fwd, int64(at-1))
	}
	for at := s.flightTail; at != 0; at = s.pkts[at-1].prev {
		if len(back) > len(s.pkts) {
			return nil, fmt.Errorf("the list from the tail loops: %v...", back[:8])
		}
		back = append(back, int64(at-1))
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) {
		return nil, fmt.Errorf("head to tail %v, tail to head %v", fwd, back)
	}
	return fwd, nil
}

// inFlight returns s's outstanding sequences in the order of their latest
// transmission in sent, the sequences of every transmission so far.
func inFlight(s *Sender, sent []int64) []int64 {
	latest := make(map[int64]int, len(sent))
	for i, seq := range sent {
		latest[seq] = i
	}
	var want []int64
	for seq := range s.pkts {
		if s.pkts[seq].outstanding {
			want = append(want, int64(seq))
		}
	}
	slices.SortFunc(want, func(a, b int64) int { return latest[a] - latest[b] })
	return want
}

// checkFlight reports how s's flight list differs from its outstanding
// sequences in latest-transmission order, or from inflight.
func checkFlight(s *Sender, sent []int64) error {
	got, err := flight(s)
	if err != nil {
		return err
	}
	if want := inFlight(s, sent); !slices.Equal(got, want) {
		return fmt.Errorf("flight list %v, outstanding in latest-transmission order %v", got, want)
	}
	var sum units.ByteSize
	for _, seq := range got {
		sum += units.ByteSize(s.pkts[seq].size)
	}
	if sum != s.inflight {
		return fmt.Errorf("flight list holds %v, inflight is %v", sum, s.inflight)
	}
	return nil
}

// The flight list is every outstanding sequence once, in the order of its
// latest transmission, whatever takes sequences out of flight: ACKs, drops
// the RTO flushes, hand-made NACKs and RTOs, and a hand-made retransmission
// of a sequence still in flight (which no signal of the protocol's own
// makes: each takes a sequence out of flight before declaring it lost).
// Gates hold the sender (FreezeNew) and release bytes to it (Release) in
// between, the first before Start: it never sends a fresh byte past what
// was released, and completes once everything is. Events and gates come a
// twentieth of the RTO floor apart, so a hand-made RTO past the first
// floor's worth of them finds a dropped packet old enough to flush.
func TestPropertyFlightListMatchesTransmissionOrder(t *testing.T) {
	const tick = units.Time(DefaultMinRTO / 20)
	f := func(size uint16, window, queuePkts uint8, events, gates []uint16) bool {
		q := netsim.QueueConfig{Capacity: units.ByteSize(queuePkts%24+2) * DefaultMSS}
		var sent []int64
		p := newTappedPair(t, 10*units.Gbps, 2*units.Microsecond, q, &sent, false)
		total := units.ByteSize(size)*5 + 1
		snd := NewSender(p.src, 1, p.dst.ID(), 0, total, Config{
			InitWindow: units.ByteSize(window%32+1) * DefaultMSS, ExpectedRTT: 6 * units.Microsecond,
		}, nil)
		rcv := NewReceiver(p.dst, 1, p.src.ID(), total, nil)
		p.src.Bind(1, snd)
		p.dst.Bind(1, rcv)
		released := total // the sender's limit, as the gates move it
		gate := func(e *sim.Engine, g uint16) {
			if g%2 == 0 {
				snd.FreezeNew()
				released = snd.SentBytes()
				return
			}
			n := units.ByteSize(g/2)%(4*DefaultMSS) + 1
			released += n
			snd.Release(e, n)
		}
		for i, g := range gates {
			if i == 0 {
				gate(p.e, g)
				continue
			}
			p.e.Schedule(units.Time(i)*tick+tick/2, func(e *sim.Engine) { gate(e, g) })
		}
		last := units.Time(max(len(events), len(gates))+1) * tick
		p.e.Schedule(last, func(e *sim.Engine) { released += total; snd.Release(e, total) })
		for i, ev := range events {
			p.e.Schedule(units.Time(i+1)*tick, func(e *sim.Engine) {
				seq := int64(ev/3) % max(snd.nextSeq, 1)
				switch ev % 3 {
				case 0:
					snd.onNack(e, &netsim.Packet{Kind: netsim.Nack, Seq: seq})
				case 1:
					snd.onTimeout(e)
				case 2: // retransmit seq now, in flight or not
					if seq >= snd.nextSeq {
						return
					}
					if st := &snd.pkts[seq]; !st.acked && !st.lost {
						st.lost = true
						snd.retxQ.push(seq)
						snd.trySend(e)
					}
				}
			})
		}
		snd.Start(p.e)
		for steps := 0; ; steps++ {
			// Until the tap has seen every transmission, a burst is still
			// crossing to it: check once it has.
			if uint64(len(sent)) == snd.Stats.PktsSent {
				if err := checkFlight(snd, sent); err != nil {
					t.Logf("after %d events: %v", steps, err)
					return false
				}
			}
			if snd.SentBytes() > released {
				t.Logf("after %d events: sent %v fresh bytes, %v released", steps, snd.SentBytes(), released)
				return false
			}
			if !p.e.Step() || steps > 1_000_000 {
				break
			}
		}
		return snd.Done() && rcv.Done() && snd.flightHead == 0 && snd.flightTail == 0
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
}

// The flight list's links leave the state of a sequence 24 bytes: the
// table, a state per packet, is a flow's largest array.
func TestPktStateIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(pktState{}); n != 24 {
		t.Errorf("pktState is %d bytes, want 24", n)
	}
}

// A flow too long for the flight list's int32 links is refused when it is
// made, before its table is carved.
func TestNewSenderPanicsOnFlowTooLongForLinks(t *testing.T) {
	p := newPair(t, units.Gbps, 0, netsim.QueueConfig{})
	var sl Slab
	sl.Expect(maxFlowPkts * DefaultMSS) // the longest flow that fits
	msg := mustPanic(t, "NewSender of 2^31-1 packets", func() {
		NewSender(p.src, 1, p.dst.ID(), 0, (maxFlowPkts+1)*DefaultMSS, Config{}, nil)
	})
	if want := "transport: a flow of 2147483647 packets, more than 2147483646"; msg != want {
		t.Errorf("panicked with %q, want %q", msg, want)
	}
	mustPanic(t, "Slab.Expect of 2^31-1 packets", func() {
		sl.Expect((maxFlowPkts + 1) * DefaultMSS)
	})
}
