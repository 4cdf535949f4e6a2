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

// flight returns the sequences on s's flight list, from its head.
func flight(s *Sender) ([]int64, error) { return walk(s, s.flight) }

// lostSeqs returns the sequences on s's lost list, from its head.
func lostSeqs(s *Sender) ([]int64, error) { return walk(s, s.lost) }

// walk walks list l through s's table from its head and returns the
// sequences on it, checking the walk back from its tail gives the same ones
// in reverse.
func walk(s *Sender, l seqList) ([]int64, error) {
	var fwd, back []int64
	for at := l.head; at != 0; at = s.pkts[at-1].next {
		if len(fwd) > len(s.pkts) {
			return nil, fmt.Errorf("the list from the head loops: %v...", fwd[:8])
		}
		fwd = append(fwd, int64(at-1))
	}
	for at := l.tail; at != 0; at = s.pkts[at-1].prev {
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
// the RTO flushes, hand-made NACKs and RTOs, and a hand-made loss of a
// sequence in flight, which lands it and declares it lost as a NACK does but
// leaves the window be.
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
				case 2: // lose seq now, if it is in flight
					if seq >= snd.nextSeq {
						return
					}
					if st := &snd.pkts[seq]; st.outstanding {
						snd.land(seq, st)
						snd.lose(seq, st)
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
		return snd.Done() && rcv.Done() && snd.flight == seqList{} && snd.lost == seqList{}
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
}

// The lost list is every sequence whose lost flag is set, once, in the order
// the sender declared them lost, under hand-made NACKs, ACKs and RTOs in a
// random interleaving. Nothing returns over the cut link but those, so the
// window holds lost sequences back and the list grows, is resent from its
// head, and loses members to ACKs. The reference keeps the order of the
// sequences still lost and appends the newly lost in the flight list's order
// before the event (a timeout declares the whole flight lost, oldest first).
func TestPropertyLostListMatchesLossOrder(t *testing.T) {
	const tick = units.Time(DefaultMinRTO / 20)
	longest := 0 // the most sequences the lost list held at once, in any case
	f := func(size uint16, window uint8, events []uint16) bool {
		var sent []int64
		p := newTappedPair(t, 10*units.Gbps, 2*units.Microsecond, netsim.QueueConfig{}, &sent, true)
		total := units.ByteSize(size)*5 + 1
		snd := NewSender(p.src, 1, p.dst.ID(), 0, total, Config{
			InitWindow: units.ByteSize(window%16+1) * DefaultMSS, ExpectedRTT: 6 * units.Microsecond,
		}, nil)
		p.src.Bind(1, snd)
		for i, ev := range events {
			p.e.Schedule(units.Time(i+1)*tick, func(e *sim.Engine) {
				seq := int64(ev/3) % max(snd.nextSeq, 1)
				switch ev % 3 {
				case 0:
					snd.onNack(e, &netsim.Packet{Kind: netsim.Nack, Seq: seq})
				case 1:
					if seq < snd.nextSeq {
						snd.onAck(e, &netsim.Packet{Kind: netsim.Ack, Seq: seq})
					}
				case 2:
					snd.onTimeout(e)
				}
			})
		}
		snd.Start(p.e)
		var want []int64 // the lost sequences in the order of their loss
		last := units.Time(len(events)+1) * tick
		for steps := 0; p.e.Now() <= last; steps++ {
			before, err := flight(snd)
			if err != nil {
				t.Logf("after %d events: %v", steps, err)
				return false
			}
			wasLost := make([]bool, snd.nextSeq)
			for seq := range wasLost {
				wasLost[seq] = snd.pkts[seq].lost
			}
			if !p.e.Step() {
				break
			}
			want = slices.DeleteFunc(want, func(seq int64) bool { return !snd.pkts[seq].lost })
			for _, seq := range before {
				if snd.pkts[seq].lost && !wasLost[seq] {
					want = append(want, seq)
				}
			}
			got, err := lostSeqs(snd)
			if err != nil {
				t.Logf("after %d events: %v", steps+1, err)
				return false
			}
			if !slices.Equal(got, want) {
				t.Logf("after %d events: lost list %v, lost flags in the order of loss %v", steps+1, got, want)
				return false
			}
			longest = max(longest, len(got))
			for seq := range snd.nextSeq {
				if snd.pkts[seq].lost && !slices.Contains(got, seq) {
					t.Logf("after %d events: seq %d is flagged lost and not on the lost list %v", steps+1, seq, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
	if longest < 2 {
		t.Errorf("the lost list never held more than %d sequences: the window let every loss go straight out", longest)
	}
	t.Logf("the lost list held up to %d sequences", longest)
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
