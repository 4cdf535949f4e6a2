package transport

// The sender's control law, rule by rule, against §4.1: "the sender resets its
// congestion window upon timeout, decreases it upon receiving an ECN-marked
// ACK or a NACK, and increases it upon an unmarked ACK". The RTO estimator
// beside it follows RFC 6298.

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// TestSection41Laws drives one sender with hand-made ACKs and NACKs at chosen
// instants. The destination is down, so these are the only signals it sees,
// and every step's effect on the window is exact. Each law acts one way: a
// timeout restarts the window at the initial window, a fresh mark and a fresh
// NACK cut it by the same alpha/2, and an unmarked ACK adds the bytes it acks.
func TestSection41Laws(t *testing.T) {
	p := newPair(t, 100*units.Gbps, units.Millisecond, netsim.QueueConfig{})
	p.dst.SetDown(true)
	cfg := Config{InitWindow: 10 * DefaultMSS, ExpectedRTT: 2 * units.Millisecond, InitRTO: 6 * units.Millisecond}
	snd := NewSender(p.src, 1, p.dst.ID(), 0, units.MB, cfg, nil)
	p.src.Bind(1, snd)
	snd.Start(p.e) // seqs 0..9 leave at time 0
	// An estimate other than the initial 1, so a cut by alpha/2 and a
	// halving differ. It holds until the first ACK after ExpectedRTT.
	const alpha = 0.25
	snd.alpha = alpha

	ms := func(f float64) units.Time { return units.Time(f * float64(units.Millisecond)) }
	// signal delivers an ACK (or a NACK) for seq at time at and returns the
	// window before and after it.
	signal := func(at units.Time, kind netsim.Kind, seq int64, marked bool) (before, after float64) {
		t.Helper()
		p.e.RunUntil(at)
		pkt := p.src.NewPacket()
		pkt.Flow, pkt.Kind, pkt.Seq, pkt.EchoECN = 1, kind, seq, marked
		before = snd.cwnd
		snd.Handle(p.e, pkt)
		return before, snd.cwnd
	}
	mss := float64(DefaultMSS)

	// An unmarked ACK increases the window by the bytes it acks.
	if before, after := signal(ms(1.0), netsim.Ack, 0, false); after != before+mss {
		t.Fatalf("unmarked ACK: cwnd %v -> %v, want +1 MSS", before, after)
	}
	// A marked ACK cuts it by alpha/2.
	if before, after := signal(ms(1.1), netsim.Ack, 1, true); after != before*(1-alpha/2) {
		t.Fatalf("marked ACK: cwnd %v -> %v, want x%v", before, after, 1-alpha/2)
	}
	// A mark on seq 2, which left before that decrease, is stale: it still
	// counts toward alpha, but moves the window in neither direction.
	if before, after := signal(ms(1.2), netsim.Ack, 2, true); after != before {
		t.Fatalf("stale marked ACK: cwnd %v -> %v, want it held", before, after)
	}
	if snd.Stats.MarkedAcks != 2 {
		t.Fatalf("MarkedAcks = %d, want 2: a stale mark still counts toward alpha", snd.Stats.MarkedAcks)
	}
	// Unmarked ACKs, stale or not, grow the window until packets leave
	// again: fresh is the first sent after the decrease.
	fresh := snd.nextSeq
	for seq := int64(3); seq <= 5; seq++ {
		if before, after := signal(ms(1.2+0.1*float64(seq-2)), netsim.Ack, seq, false); after != before+mss {
			t.Fatalf("unmarked ACK of seq %d: cwnd %v -> %v, want +1 MSS", seq, before, after)
		}
	}
	if snd.nextSeq < fresh+2 {
		t.Fatalf("nothing sent since the decrease (next seq %d)", snd.nextSeq)
	}
	// A mark on a packet sent since the decrease is fresh, but it comes
	// within an RTT of that decrease: the window decreases at most once per
	// RTT, and a marked ACK never increases it.
	if before, after := signal(ms(1.6), netsim.Ack, fresh, true); after != before {
		t.Fatalf("fresh marked ACK inside the RTT: cwnd %v -> %v, want it held", before, after)
	}
	if snd.Stats.Decreases != 1 {
		t.Fatalf("Decreases = %d after two marks in one RTT, want 1", snd.Stats.Decreases)
	}
	// A NACK more than an RTT after the decrease, for a packet sent since
	// it, cuts the window as a fresh mark does, at the same alpha; a NACK
	// for seq 6, sent before that cut, does not.
	if snd.alpha != alpha {
		t.Fatalf("alpha = %v before the NACK, want %v still", snd.alpha, alpha)
	}
	if before, after := signal(ms(3.0), netsim.Nack, fresh+1, false); after != before*(1-alpha/2) {
		t.Fatalf("NACK: cwnd %v -> %v, want x%v as on a mark", before, after, 1-alpha/2)
	}
	if before, after := signal(ms(3.1), netsim.Nack, 6, false); after != before {
		t.Fatalf("stale NACK: cwnd %v -> %v, want it held", before, after)
	}
	if snd.Stats.Decreases != 2 {
		t.Fatalf("Decreases = %d, want 2", snd.Stats.Decreases)
	}
	// A timeout restarts the window at the initial window: nothing acks
	// seqs 7..9, sent at time 0.
	p.e.RunUntil(ms(30))
	if snd.Stats.Timeouts == 0 {
		t.Fatal("no timeout fired with the destination down")
	}
	if got := snd.Cwnd(); got != cfg.InitWindow {
		t.Fatalf("cwnd after a timeout = %v, want the initial window %v", got, cfg.InitWindow)
	}
	// After the restart an unmarked ACK still adds exactly the bytes it
	// acks: there is no second, slower increase.
	if before, after := signal(ms(30), netsim.Ack, 7, false); after != before+mss {
		t.Fatalf("unmarked ACK after the restart: cwnd %v -> %v, want +1 MSS", before, after)
	}
}

// TestRTOGranularityAbsorbsQueueing: a long run of identical RTT samples
// decays rttvar toward zero, and with it srtt + 4·rttvar toward srtt. RFC 6298
// §2.3 keeps the variance term at least the clock granularity G
// (DefaultMinRTO here), so one ACK held up by tens of microseconds of queueing
// does not fire a timeout.
func TestRTOGranularityAbsorbsQueueing(t *testing.T) {
	p := newPair(t, 100*units.Gbps, units.Millisecond, netsim.QueueConfig{})
	cfg := Config{InitWindow: DefaultMSS, ExpectedRTT: 2 * units.Millisecond, InitRTO: 6 * units.Millisecond}
	const pkts = 60
	recv := NewReceiver(p.dst, 1, p.src.ID(), pkts*DefaultMSS, nil)
	snd := NewSender(p.src, 1, p.dst.ID(), 0, pkts*DefaultMSS, cfg, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	// One packet every 3 ms, each acked before the next leaves: every RTT
	// sample is the same.
	snd.FreezeNew()
	snd.Start(p.e)
	const gap = 3 * units.Millisecond
	for i := range pkts {
		p.e.Schedule(units.Time(i)*units.Time(gap), func(*sim.Engine) { snd.Release(p.e, DefaultMSS) })
	}

	// Just before packet 50 leaves, another flow on the same host puts
	// 375 KB, 30 us at 100 Gbps, into the NIC ahead of it.
	const burstAt = 50 * units.Time(gap)
	var rtoBefore, srttBefore units.Duration
	p.e.Schedule(burstAt-units.Time(units.Microsecond), func(*sim.Engine) {
		rtoBefore, srttBefore = snd.RTO(), snd.SRTT()
		const burst = 250 * DefaultMSS
		r2 := NewReceiver(p.dst, 2, p.src.ID(), burst, nil)
		s2 := NewSender(p.src, 2, p.dst.ID(), 0, burst, Config{InitWindow: burst, ExpectedRTT: 2 * units.Millisecond}, nil)
		p.src.Bind(2, s2)
		p.dst.Bind(2, r2)
		s2.Start(p.e)
	})
	p.e.RunUntil(units.Time(units.Second))

	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	if rtoBefore < srttBefore+DefaultMinRTO {
		t.Errorf("after 49 constant samples RTO = %v with SRTT %v: want at least SRTT + %v", rtoBefore, srttBefore, DefaultMinRTO)
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("%d timeouts: an ACK queued 30 us behind a burst fired the RTO", snd.Stats.Timeouts)
	}
}
