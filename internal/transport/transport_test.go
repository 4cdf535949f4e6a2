package transport

import (
	"testing"
	"testing/quick"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// pair wires two hosts with a direct full-duplex link.
type pair struct {
	e        *sim.Engine
	src, dst *netsim.Host
}

func newPair(t testing.TB, rate units.BitRate, delay units.Duration, q netsim.QueueConfig) *pair {
	t.Helper()
	e := sim.New()
	src := netsim.NewHost(1, "src")
	dst := netsim.NewHost(2, "dst")
	// Both directions get the same egress config; control packets ride
	// the priority band regardless.
	netsim.Connect(src, dst, rate, delay, q, q, rng.New(99))
	return &pair{e: e, src: src, dst: dst}
}

// runFlow transfers total bytes over p and returns (receiver done time, ok).
func runFlow(t testing.TB, p *pair, total units.ByteSize, cfg Config) (units.Time, *Sender, *Receiver) {
	t.Helper()
	var doneAt units.Time
	recv := NewReceiver(p.dst, 1, p.src.ID(), total, func(at units.Time) { doneAt = at })
	snd := NewSender(p.src, 1, p.dst.ID(), 0, total, cfg, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)
	p.e.RunUntil(units.Time(30 * units.Second))
	return doneAt, snd, recv
}

func TestBasicTransferCompletes(t *testing.T) {
	p := newPair(t, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
	total := 1 * units.MB
	cfg := Config{InitWindow: 10 * units.MB, ExpectedRTT: 2 * units.Microsecond}
	doneAt, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() || !snd.Done() {
		t.Fatalf("flow incomplete: recv=%v snd=%v", recv.Done(), snd.Done())
	}
	if recv.Bytes() != total {
		t.Fatalf("received %v, want %v", recv.Bytes(), total)
	}
	// 1MB @ 100Gbps = 80us serialization + ~2us propagation.
	if doneAt < units.Time(80*units.Microsecond) || doneAt > units.Time(120*units.Microsecond) {
		t.Fatalf("completion at %v, want ~81us", doneAt)
	}
	if snd.Stats.Retransmits != 0 || snd.Stats.Timeouts != 0 {
		t.Fatalf("lossless path saw retx=%d timeouts=%d", snd.Stats.Retransmits, snd.Stats.Timeouts)
	}
	if fct := snd.FCT(); fct != snd.DoneAt().Sub(0) {
		t.Fatalf("FCT = %v, want DoneAt-start = %v", fct, snd.DoneAt())
	}
}

func TestWindowLimitedThroughput(t *testing.T) {
	// 1 MSS window over a 1ms-delay link: ~1 packet per RTT (2ms).
	p := newPair(t, 100*units.Gbps, units.Millisecond, netsim.QueueConfig{})
	total := 15000 * units.Byte // 10 packets
	cfg := Config{InitWindow: 1500, ExpectedRTT: 2 * units.Millisecond}
	doneAt, _, recv := runFlow(t, p, total, cfg)
	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	// Slow-start doubles the window, so it's faster than 10 RTTs but
	// must take at least 3 round trips (1+2+4 >= 10 packets at ~2ms).
	if doneAt < units.Time(5*units.Millisecond) {
		t.Fatalf("completion at %v: window limit not enforced", doneAt)
	}
}

func TestLastPacketSmaller(t *testing.T) {
	p := newPair(t, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
	total := units.ByteSize(1500*3 + 700)
	cfg := Config{InitWindow: 1 * units.MB, ExpectedRTT: 2 * units.Microsecond}
	_, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() || recv.Bytes() != total {
		t.Fatalf("received %v, want %v", recv.Bytes(), total)
	}
	if snd.Stats.PktsSent != 4 {
		t.Fatalf("sent %d packets, want 4", snd.Stats.PktsSent)
	}
}

func TestDropRecoveryViaRTO(t *testing.T) {
	// Tiny drop-tail queue, big initial window: the burst overflows and
	// the sender must recover through timeouts.
	q := netsim.QueueConfig{Capacity: 15_000} // 10 packets
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, q)
	total := 300 * units.KB // 200 packets
	cfg := Config{
		InitWindow:  1 * units.MB, // whole flow in the first burst
		ExpectedRTT: 25 * units.Microsecond,
		MinRTO:      50 * units.Microsecond,
	}
	doneAt, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() {
		t.Fatalf("flow incomplete after drops: recv %v of %v, timeouts=%d",
			recv.Bytes(), total, snd.Stats.Timeouts)
	}
	if snd.Stats.Timeouts == 0 || snd.Stats.Retransmits == 0 {
		t.Fatalf("expected timeout-driven recovery, got timeouts=%d retx=%d",
			snd.Stats.Timeouts, snd.Stats.Retransmits)
	}
	if doneAt == 0 {
		t.Fatal("no completion time")
	}
}

func TestTrimNackRecovery(t *testing.T) {
	// Trimming queue: overflowing packets become headers, the receiver
	// NACKs them, and the sender retransmits without waiting for RTO.
	q := netsim.QueueConfig{Capacity: 15_000, Trim: true}
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, q)
	total := 300 * units.KB
	cfg := Config{
		InitWindow:  1 * units.MB,
		ExpectedRTT: 25 * units.Microsecond,
		MinRTO:      10 * units.Millisecond, // RTO effectively out of the picture
	}
	doneAt, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() {
		t.Fatalf("flow incomplete: recv %v of %v, nacks=%d", recv.Bytes(), total, snd.Stats.Nacks)
	}
	if snd.Stats.Nacks == 0 {
		t.Fatal("expected NACK-driven recovery")
	}
	if recv.Stats.TrimmedSeen == 0 || recv.Stats.NacksSent == 0 {
		t.Fatalf("receiver saw %d trims, sent %d nacks", recv.Stats.TrimmedSeen, recv.Stats.NacksSent)
	}
	// NACK recovery must beat the 10ms RTO path by a wide margin.
	if doneAt > units.Time(8*units.Millisecond) {
		t.Fatalf("NACK recovery too slow: %v", doneAt)
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatalf("NACK path should avoid timeouts, got %d", snd.Stats.Timeouts)
	}
}

func TestECNMarksReduceWindow(t *testing.T) {
	q := netsim.QueueConfig{Capacity: 1 << 30, MarkLow: 3000, MarkHigh: 6000}
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, q)
	total := 1500 * units.KB
	cfg := Config{InitWindow: 500 * 1500, ExpectedRTT: 25 * units.Microsecond}
	_, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	if snd.Stats.MarkedAcks == 0 {
		t.Fatal("expected ECN-marked acks")
	}
	if snd.Stats.Decreases == 0 {
		t.Fatal("marked acks must trigger window decreases")
	}
	// ECN must not be treated as loss: no timeouts, no retransmits.
	if snd.Stats.Timeouts != 0 || snd.Stats.Retransmits != 0 {
		t.Fatalf("ECN-only congestion caused timeouts=%d retx=%d",
			snd.Stats.Timeouts, snd.Stats.Retransmits)
	}
}

func TestRTTEstimate(t *testing.T) {
	p := newPair(t, 100*units.Gbps, 500*units.Microsecond, netsim.QueueConfig{})
	cfg := Config{InitWindow: 3000, ExpectedRTT: units.Millisecond}
	_, snd, recv := runFlow(t, p, 150*units.KB, cfg)
	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	srtt := snd.SRTT()
	if srtt < 900*units.Microsecond || srtt > 1500*units.Microsecond {
		t.Fatalf("SRTT = %v, want ~1ms", srtt)
	}
	if snd.RTO() < srtt {
		t.Fatalf("RTO %v below SRTT %v", snd.RTO(), srtt)
	}
}

func TestStreamingSender(t *testing.T) {
	p := newPair(t, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
	var doneAt units.Time
	recv := NewReceiver(p.dst, 1, p.src.ID(), 0, nil)
	snd := NewStreamingSender(p.src, 1, p.dst.ID(), 0,
		Config{InitWindow: 1 * units.MB, ExpectedRTT: 2 * units.Microsecond},
		func(at units.Time) { doneAt = at })
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)

	// Supply in three bursts separated by idle time.
	for burst := 0; burst < 3; burst++ {
		at := units.Time(burst) * units.Time(100*units.Microsecond)
		p.e.Schedule(at, func(e *sim.Engine) {
			for i := 0; i < 10; i++ {
				snd.Supply(e, 1500)
			}
		})
	}
	p.e.Schedule(units.Time(300*units.Microsecond), func(e *sim.Engine) { snd.CloseSupply(e) })
	p.e.Run()

	if !snd.Done() {
		t.Fatal("streaming sender incomplete")
	}
	if recv.Bytes() != 30*1500 {
		t.Fatalf("received %v, want %v", recv.Bytes(), 30*1500)
	}
	if doneAt == 0 {
		t.Fatal("onDone not called")
	}
}

func TestStreamingSupplyOnFixedPanics(t *testing.T) {
	p := newPair(t, units.Gbps, 0, netsim.QueueConfig{})
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 1500, Config{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Supply on fixed sender must panic")
		}
	}()
	snd.Supply(p.e, 1500)
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	p := newPair(t, units.Gbps, 0, netsim.QueueConfig{})
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 0, Config{}, nil)
	p.src.Bind(1, snd)
	snd.Start(p.e)
	p.e.Run()
	if !snd.Done() {
		t.Fatal("zero-byte flow should complete at Start")
	}
}

func TestDuplicateDataReAcked(t *testing.T) {
	e := sim.New()
	src := netsim.NewHost(1, "src")
	dst := netsim.NewHost(2, "dst")
	netsim.Connect(src, dst, 100*units.Gbps, 0, netsim.QueueConfig{}, netsim.QueueConfig{}, nil)
	recv := NewReceiver(dst, 1, src.ID(), 0, nil)
	dst.Bind(1, recv)
	acks := 0
	src.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) { acks++ }))

	for i := 0; i < 2; i++ {
		pkt := src.NewPacket()
		pkt.Flow = 1
		pkt.Kind = netsim.Data
		pkt.Seq = 7
		pkt.Size = 1500
		pkt.FullSize = 1500
		pkt.Dst = dst.ID()
		src.Send(e, pkt)
	}
	e.Run()
	if recv.Stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d", recv.Stats.Duplicates)
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want re-ack of duplicate", acks)
	}
	if recv.Bytes() != 1500 {
		t.Fatalf("bytes = %v, duplicate must not double-count", recv.Bytes())
	}
}

func TestReceiverIgnoresNonData(t *testing.T) {
	e := sim.New()
	h := netsim.NewHost(1, "h")
	recv := NewReceiver(h, 1, 2, 0, nil)
	recv.Handle(e, &netsim.Packet{Kind: netsim.Ack, Flow: 1})
	if recv.Stats.PktsReceived != 0 {
		t.Fatal("receiver must ignore control packets")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MSS != DefaultMSS || c.MinWindow != DefaultMSS {
		t.Fatalf("defaults: %+v", c)
	}
	if c.InitRTO < c.MinRTO || c.MaxRTO <= 0 || c.Gain <= 0 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.String() == "" {
		t.Fatal("empty config string")
	}
}

func TestKarnRetransmitsDoNotSkewSRTT(t *testing.T) {
	// Drop-heavy path; after recovery SRTT should still be close to the
	// real RTT (~20us), not inflated by retransmission ambiguity.
	q := netsim.QueueConfig{Capacity: 15_000}
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, q)
	cfg := Config{
		InitWindow:  500 * units.KB,
		ExpectedRTT: 25 * units.Microsecond,
		MinRTO:      100 * units.Microsecond,
	}
	_, snd, recv := runFlow(t, p, 150*units.KB, cfg)
	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	if snd.SRTT() > 2*units.Millisecond {
		t.Fatalf("SRTT %v absurdly inflated; Karn filtering broken?", snd.SRTT())
	}
}

func TestFlowSurvivesLinkOutage(t *testing.T) {
	// The destination goes dark for a while mid-flow; the sender must
	// detect the blackout via RTO and finish after the link heals.
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, netsim.QueueConfig{})
	total := 600 * units.KB
	cfg := Config{
		InitWindow:  64 * units.KB,
		ExpectedRTT: 25 * units.Microsecond,
		MinRTO:      200 * units.Microsecond,
	}
	var doneAt units.Time
	recv := NewReceiver(p.dst, 1, p.src.ID(), total, func(at units.Time) { doneAt = at })
	snd := NewSender(p.src, 1, p.dst.ID(), 0, total, cfg, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)

	outage(p, p.dst, units.Time(50*units.Microsecond), 3*units.Millisecond-50*units.Microsecond)
	p.e.RunUntil(units.Time(30 * units.Second))

	if !recv.Done() || recv.Bytes() != total {
		t.Fatalf("flow did not survive outage: %v of %v", recv.Bytes(), total)
	}
	if snd.Stats.Timeouts == 0 {
		t.Fatal("outage must be detected by timeout")
	}
	if doneAt < units.Time(3*units.Millisecond) {
		t.Fatalf("finished at %v, before the link healed", doneAt)
	}
}

func TestGeminiModeMilderDecrease(t *testing.T) {
	// Same marked-congestion scenario over a long-RTT path, with and
	// without Gemini scaling: the Gemini sender must decrease less per
	// mark and hold a larger window.
	run := func(gemini bool) units.ByteSize {
		q := netsim.QueueConfig{Capacity: 1 << 30, MarkLow: 3000, MarkHigh: 6000}
		p := newPair(t, 10*units.Gbps, 2*units.Millisecond, q) // ~4ms RTT
		cfg := Config{
			InitWindow:  400 * 1500,
			ExpectedRTT: 4 * units.Millisecond,
			GeminiMode:  gemini,
			RTTRef:      100 * units.Microsecond,
		}
		_, snd, recv := runFlow(t, p, 3*units.MB, cfg)
		if !recv.Done() {
			t.Fatal("flow incomplete")
		}
		if snd.Stats.MarkedAcks == 0 {
			t.Fatal("scenario produced no marks")
		}
		return snd.Cwnd()
	}
	dctcp := run(false)
	gemini := run(true)
	if gemini <= dctcp {
		t.Fatalf("gemini cwnd %v should exceed dctcp cwnd %v on a long-RTT marked path",
			gemini, dctcp)
	}
}

func TestSpuriousTimeoutUndone(t *testing.T) {
	// InitRTO far below the actual RTT: the timer fires before the first
	// ACK arrives. The late ACKs must be recognized as evidence of a
	// spurious timeout, restoring the window and avoiding retransmission
	// of the whole flight.
	p := newPair(t, 100*units.Gbps, 2*units.Millisecond, netsim.QueueConfig{})
	total := 300 * units.KB
	cfg := Config{
		InitWindow:  1 * units.MB,
		ExpectedRTT: 100 * units.Microsecond, // wrong on purpose (real: 4ms)
		MinRTO:      100 * units.Microsecond,
	}
	doneAt, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() {
		t.Fatal("flow incomplete")
	}
	if snd.Stats.Timeouts == 0 {
		t.Fatal("test premise broken: no timeout fired")
	}
	if snd.Stats.SpuriousRTO == 0 {
		t.Fatal("spurious timeout not detected")
	}
	// Undo must keep completion near one RTT + retransmission trickle,
	// not a multi-RTO crawl.
	if doneAt > units.Time(40*units.Millisecond) {
		t.Fatalf("completion %v: spurious-RTO undo ineffective", doneAt)
	}
}

// Property: over lossy (drop or trim) links with random capacities, flows
// always complete, and the receiver sees exactly the flow's bytes.
func TestPropertyFlowAlwaysCompletes(t *testing.T) {
	f := func(seed int64, capKB uint8, trim bool, sizeKB uint16) bool {
		capacity := units.ByteSize(int(capKB)%64+4) * 1500
		total := units.ByteSize(int(sizeKB)%200+1) * units.KB
		q := netsim.QueueConfig{Capacity: capacity, Trim: trim}
		p := newPair(t, 10*units.Gbps, 5*units.Microsecond, q)
		cfg := Config{
			InitWindow:  256 * units.KB,
			ExpectedRTT: 12 * units.Microsecond,
			MinRTO:      50 * units.Microsecond,
		}
		_, snd, recv := runFlow(t, p, total, cfg)
		return recv.Done() && snd.Done() && recv.Bytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransfer1MBLossless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPair(b, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
		cfg := Config{InitWindow: 10 * units.MB, ExpectedRTT: 2 * units.Microsecond}
		_, _, recv := runFlow(b, p, units.MB, cfg)
		if !recv.Done() {
			b.Fatal("incomplete")
		}
	}
}
