package transport

import (
	"testing"
	"testing/quick"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// invariantChecker wraps a sender and asserts its internal accounting
// invariants after every delivered packet.
func checkInvariants(t *testing.T, s *Sender) {
	t.Helper()
	if s.inflight < 0 {
		t.Fatalf("inflight negative: %v", s.inflight)
	}
	if units.ByteSize(s.cwnd) < s.cfg.MSS {
		t.Fatalf("cwnd %v below floor %v", s.cwnd, s.cfg.MSS)
	}
	var sum units.ByteSize
	for _, st := range s.pkts {
		if st.outstanding {
			sum += units.ByteSize(st.size)
		}
	}
	if sum != s.inflight {
		t.Fatalf("inflight %v != outstanding sum %v", s.inflight, sum)
	}
	if s.rto < s.cfg.MinRTO || s.rto > s.cfg.MaxRTO {
		t.Fatalf("rto %v outside [%v, %v]", s.rto, s.cfg.MinRTO, s.cfg.MaxRTO)
	}
}

// TestPropertyTransportInvariants runs randomized lossy flows and checks
// accounting invariants at every ACK/NACK delivery, and exact data
// delivery at the end.
func TestPropertyTransportInvariants(t *testing.T) {
	f := func(seed int64, capPkts uint8, trim bool, sizeKB uint16, delayUS uint8) bool {
		capacity := units.ByteSize(int(capPkts)%48+4) * 1500
		total := units.ByteSize(int(sizeKB)%120+2) * units.KB
		delay := units.Duration(int(delayUS)%40+2) * units.Microsecond

		e := sim.New()
		src := netsim.NewHost(1, "src")
		dst := netsim.NewHost(2, "dst")
		q := netsim.QueueConfig{Capacity: capacity, Trim: trim, MarkLow: capacity / 4, MarkHigh: capacity / 2}
		netsim.Connect(src, dst, 10*units.Gbps, delay, q, q, rng.New(seed))

		cfg := Config{
			InitWindow:  256 * units.KB,
			ExpectedRTT: 2*delay + 10*units.Microsecond,
			MinRTO:      100 * units.Microsecond,
		}
		recv := NewReceiver(dst, 1, src.ID(), total, nil)
		snd := NewSender(src, 1, dst.ID(), 0, total, cfg, nil)

		// Intercept delivery to the sender so invariants are checked
		// after every control packet.
		src.Bind(1, netsim.EndpointFunc(func(e *sim.Engine, p *netsim.Packet) {
			snd.Handle(e, p)
			checkInvariants(t, snd)
		}))
		dst.Bind(1, recv)
		snd.Start(e)
		e.RunUntil(units.Time(20 * units.Second))

		return recv.Done() && snd.Done() && recv.Bytes() == total && snd.Inflight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoDuplicateDelivery: the receiver's byte count equals the
// flow size exactly, never more, even under heavy retransmission.
func TestPropertyNoDuplicateDelivery(t *testing.T) {
	f := func(seed int64, sizeKB uint16) bool {
		total := units.ByteSize(int(sizeKB)%300+10) * units.KB
		e := sim.New()
		src := netsim.NewHost(1, "src")
		dst := netsim.NewHost(2, "dst")
		q := netsim.QueueConfig{Capacity: 9000} // brutal: 6 packets
		netsim.Connect(src, dst, 10*units.Gbps, 5*units.Microsecond, q, q, rng.New(seed))
		recv := NewReceiver(dst, 1, src.ID(), total, nil)
		snd := NewSender(src, 1, dst.ID(), 0, total, Config{
			InitWindow:  128 * units.KB,
			ExpectedRTT: 15 * units.Microsecond,
			MinRTO:      100 * units.Microsecond,
		}, nil)
		src.Bind(1, snd)
		dst.Bind(1, recv)
		snd.Start(e)
		e.RunUntil(units.Time(20 * units.Second))
		return recv.Done() && recv.Bytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSenderAccessorsDuringRun spot-checks the exported accessors.
func TestSenderAccessorsDuringRun(t *testing.T) {
	p := newPair(t, 10*units.Gbps, 100*units.Microsecond, netsim.QueueConfig{})
	cfg := Config{InitWindow: 15_000, ExpectedRTT: 220 * units.Microsecond}
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 150*units.KB, cfg, nil)
	recv := NewReceiver(p.dst, 1, p.src.ID(), 150*units.KB, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)
	p.e.RunUntil(units.Time(50 * units.Microsecond))
	if snd.Inflight() == 0 {
		t.Fatal("mid-flight inflight should be positive")
	}
	if snd.Cwnd() != 15_000 {
		t.Fatalf("cwnd = %v before any feedback", snd.Cwnd())
	}
	if snd.Done() {
		t.Fatal("cannot be done mid-flight")
	}
	p.e.RunUntil(units.Time(20 * units.Second))
	if !snd.Done() || snd.DoneAt() == 0 {
		t.Fatal("flow should finish")
	}
}
