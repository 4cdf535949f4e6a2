package transport

// Recovery behaviour under outages: the transport must survive a destination
// that goes silent, briefly or for many RTOs, with RTO-driven retransmission,
// reset its window on timeout (§4.1), back off exponentially instead of
// livelocking, and resume cleanly when the path heals.

import (
	"runtime"
	"slices"
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// outage takes h down at time at for dur: while down it neither receives nor
// sends, so its side of the link carries nothing in either direction.
func outage(p *pair, h *netsim.Host, at units.Time, dur units.Duration) {
	p.e.Schedule(at, func(*sim.Engine) { h.SetDown(true) })
	p.e.Schedule(at.Add(dur), func(*sim.Engine) { h.SetDown(false) })
}

func TestRecoveryAcrossMidFlowLinkFlap(t *testing.T) {
	// 10 Gbps / 10 us link; the flow takes ~800 us clean, and the
	// destination's link goes dark for 2 ms in the middle.
	p := newPair(t, 10*units.Gbps, 10*units.Microsecond, netsim.QueueConfig{})
	total := units.ByteSize(1 * units.MB)
	cfg := Config{
		InitWindow:  100 * units.KB,
		ExpectedRTT: 25 * units.Microsecond,
	}

	outage(p, p.dst, units.Time(200*units.Microsecond), 2*units.Millisecond)

	doneAt, snd, recv := runFlow(t, p, total, cfg)
	if !recv.Done() || recv.Bytes() != total {
		t.Fatalf("flow incomplete across flap: recv %v of %v, timeouts=%d",
			recv.Bytes(), total, snd.Stats.Timeouts)
	}
	if snd.Stats.Timeouts == 0 || snd.Stats.Retransmits == 0 {
		t.Fatalf("flap must force RTO recovery, got timeouts=%d retx=%d",
			snd.Stats.Timeouts, snd.Stats.Retransmits)
	}
	// Completion can't precede the link coming back.
	if doneAt < units.Time(2200*units.Microsecond) {
		t.Fatalf("done at %v, before the flap cleared", doneAt)
	}
	if p.dst.DroppedDown == 0 {
		t.Fatal("no packet met the outage")
	}
}

func TestBlackholeResetsWindowAndBacksOff(t *testing.T) {
	// Emulate a long-haul path: 1 ms propagation. A 20 s blackhole is
	// many RTOs long; the sender must reset cwnd to the minimum, back off
	// exponentially (bounded timeout count — no livelock) until the RTO
	// reaches its ceiling, and finish after the path heals.
	p := newPair(t, 10*units.Gbps, units.Millisecond, netsim.QueueConfig{})
	total := units.ByteSize(300 * units.KB)
	cfg := Config{
		InitWindow:  30 * units.KB,
		ExpectedRTT: 2 * units.Millisecond,
		InitRTO:     6 * units.Millisecond,
	}

	const holeStart = units.Time(3 * units.Millisecond)
	const holeDur = 20 * units.Second
	// The destination drops what reaches it and sends nothing back: a true
	// blackhole.
	outage(p, p.dst, holeStart, holeDur)

	var cwndMidHole units.ByteSize
	var timeoutsMidHole uint64

	var doneAt units.Time
	recv := NewReceiver(p.dst, 1, p.src.ID(), total, func(at units.Time) { doneAt = at })
	snd := NewSender(p.src, 1, p.dst.ID(), 0, total, cfg, nil)
	tr := obs.NewTracer()
	snd.Attach(NewTelemetry(nil, tr), "f")
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	// Sample sender state deep inside the hole, after several RTOs.
	p.e.Schedule(holeStart.Add(80*units.Millisecond), func(*sim.Engine) {
		cwndMidHole = snd.Cwnd()
		timeoutsMidHole = snd.Stats.Timeouts
	})
	snd.Start(p.e)
	p.e.RunUntil(units.Time(30 * units.Second))

	// When each timeout fired, up to the hole's end: the sender's "rto"
	// instants.
	var expiries []units.Time
	for _, ev := range tr.Events() {
		if ev.Ph == obs.PhaseInstant && ev.Name == "rto" && ev.At <= holeStart.Add(holeDur) {
			expiries = append(expiries, ev.At)
		}
	}

	if !recv.Done() || recv.Bytes() != total {
		t.Fatalf("flow incomplete after blackhole: recv %v of %v", recv.Bytes(), total)
	}
	if doneAt < holeStart.Add(holeDur) {
		t.Fatalf("done at %v, inside the blackhole", doneAt)
	}
	// §4.1: cwnd resets to the initial window on timeout.
	if cwndMidHole != cfg.InitWindow {
		t.Fatalf("cwnd mid-blackhole = %v, want the initial window %v", cwndMidHole, cfg.InitWindow)
	}
	// Exponential backoff bounds the RTO count: an RTO of about one 2 ms
	// RTT, doubling on each expiry, fits 5 expiries in the first 80 ms of
	// the outage. A livelocked (non-backing-off) sender would fire 40.
	if timeoutsMidHole == 0 {
		t.Fatal("no timeouts during a total blackhole")
	}
	if timeoutsMidHole > 10 {
		t.Fatalf("timeouts = %d during the hole: backoff not applied (livelock)", timeoutsMidHole)
	}
	// The gap between expiries grows until it reaches defaultMaxRTO, then
	// stays there: the ceiling holds a backed-off sender to one probe per
	// 5 s however long the outage lasts.
	atCeiling := 0
	for i := 2; i < len(expiries); i++ {
		gap, prev := expiries[i].Sub(expiries[i-1]), expiries[i-1].Sub(expiries[i-2])
		if gap > defaultMaxRTO || gap < prev {
			t.Fatalf("expiry gaps %v then %v: want non-decreasing, at most %v", prev, gap, defaultMaxRTO)
		}
		if gap == defaultMaxRTO {
			atCeiling++
		}
	}
	if atCeiling < 2 {
		t.Fatalf("%d expiry gaps at the %v ceiling in a %v hole (expiries %v), want at least 2",
			atCeiling, defaultMaxRTO, holeDur, expiries)
	}
}

func TestAbortSilencesSender(t *testing.T) {
	p := newPair(t, 10*units.Gbps, units.Millisecond, netsim.QueueConfig{})
	cfg := Config{InitWindow: 15 * units.KB, ExpectedRTT: 2 * units.Millisecond, InitRTO: 6 * units.Millisecond}

	// The sender's host is cut off from the start; the sender would
	// retransmit forever without Abort.
	p.src.SetDown(true)

	recv := NewReceiver(p.dst, 1, p.src.ID(), 300*units.KB, nil)
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 300*units.KB, cfg, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)

	p.e.Schedule(units.Time(20*units.Millisecond), func(*sim.Engine) { snd.Abort() })
	p.e.RunUntil(units.Time(30 * units.Millisecond))

	if !snd.Aborted() || snd.Done() {
		t.Fatalf("aborted=%v done=%v", snd.Aborted(), snd.Done())
	}
	// Once aborted, the event loop drains: nothing re-arms, so no timer
	// survives past the abort instant.
	if n := p.e.Pending(); n != 0 {
		t.Fatalf("%d events still queued after abort: timers still churning", n)
	}
	sentAtAbort := snd.Stats.PktsSent
	p.e.Run()
	if snd.Stats.PktsSent != sentAtAbort {
		t.Fatal("aborted sender transmitted again")
	}
}

// One survivor stays at the head of the flight list for the whole run (the
// link is cut, so nothing comes back) while hand-made NACKs, as a near proxy
// would send them, resolve every retransmission behind it, round after round.
// A churn round costs no allocation once warm, however many transmissions the
// flow has made, and the survivor's RTO flushes exactly the window in flight,
// in the order of its latest transmissions, onto the lost list behind what the
// NACKs had already put there.
func TestSurvivorHeadsFlightListUnderNackChurn(t *testing.T) {
	const rounds, warm = 300, 100
	sent := make([]int64, 0, 1<<16)
	p := newTappedPair(t, 100*units.Gbps, units.Millisecond, netsim.QueueConfig{}, &sent, true)
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 10*units.MB, Config{
		InitWindow: 32 * DefaultMSS, ExpectedRTT: 2 * units.Millisecond, InitRTO: 20 * units.Millisecond,
	}, nil)
	p.src.Bind(1, snd)
	snd.Start(p.e)
	nack := &netsim.Packet{Kind: netsim.Nack}
	peak, r := 0, 0
	// A round runs to its instant and NACKs what is outstanding there, then
	// runs a microsecond more, in which its retransmissions reach the tap.
	round := func() {
		r++
		p.e.RunUntil(units.Time(r) * units.Time(10*units.Microsecond))
		outstanding := 0
		for seq := int64(0); seq < snd.nextSeq; seq++ {
			if snd.pkts[seq].outstanding {
				outstanding++
				if seq > 0 {
					nack.Seq = seq
					snd.onNack(p.e, nack)
				}
			}
		}
		peak = max(peak, outstanding)
		p.e.RunUntil(p.e.Now().Add(units.Microsecond))
		if snd.flight.head != 1 {
			t.Fatalf("round %d: the survivor is not at the head of the flight list (head %d)", r, snd.flight.head-1)
		}
	}
	for r < warm-1 {
		round()
		if err := checkFlight(snd, sent); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if allocs := testing.AllocsPerRun(rounds-warm, round); allocs != 0 {
		t.Errorf("a churn round makes %.1f allocations once warm, want 0", allocs)
	}
	if r != rounds || snd.Stats.Retransmits < 10*uint64(peak) {
		t.Fatalf("no churn: %d rounds, %+v with at most %d outstanding", r, snd.Stats, peak)
	}

	if err := checkFlight(snd, sent); err != nil {
		t.Fatal(err)
	}
	want := append(mustLost(t, snd), inFlight(snd, sent)...)
	before := len(sent)
	p.e.RunUntil(units.Time(25 * units.Millisecond)) // the survivor's RTO flushes the window
	if got := slices.Concat(sent[before:], mustLost(t, snd)); snd.Stats.Timeouts != 1 || !slices.Equal(got, want) {
		t.Errorf("%d timeouts; retransmitted then lost %v, want what was lost then the window %v",
			snd.Stats.Timeouts, got, want)
	}
}

// mustLost returns the sequences on s's lost list, from its head.
func mustLost(t *testing.T, s *Sender) []int64 {
	t.Helper()
	seqs, err := lostSeqs(s)
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// A go-back-N timeout moves the whole flight onto the lost list, which is
// threaded through the sender's table as the flight list is: flushing a
// 1,200-packet flight allocates nothing. The flush keeps the flight's order,
// so the retransmissions go oldest first.
func TestTimeoutFlushAllocatesNothing(t *testing.T) {
	const flightPkts = 1200
	type blackholed struct {
		p    *pair
		snd  *Sender
		sent []int64
		want []int64 // the flight before the timeout, oldest first
	}
	var runs [2]blackholed // AllocsPerRun makes one warm-up call
	for i := range runs {
		r := &runs[i]
		r.sent = make([]int64, 0, 2*flightPkts)
		r.p = newTappedPair(t, 100*units.Gbps, units.Millisecond, netsim.QueueConfig{}, &r.sent, true)
		r.snd = NewSender(r.p.src, 1, r.p.dst.ID(), 0, 10*units.MB, Config{
			InitWindow: flightPkts * DefaultMSS, ExpectedRTT: 2 * units.Millisecond, InitRTO: 20 * units.Millisecond,
		}, nil)
		r.p.src.Bind(1, r.snd)
		r.snd.Start(r.p.e)
		r.p.e.RunUntil(units.Time(10 * units.Millisecond)) // the window is out, its RTO not yet due
		if err := checkFlight(r.snd, r.sent); err != nil {
			t.Fatal(err)
		}
		r.want = inFlight(r.snd, r.sent)
		if len(r.want) < 1000 || r.snd.Stats.Timeouts != 0 || r.snd.lost.head != 0 {
			t.Fatalf("before the timeout: %d in flight (want >= 1000), %d timeouts, %d lost",
				len(r.want), r.snd.Stats.Timeouts, len(mustLost(t, r.snd)))
		}
	}
	next := 0
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() { // up to and including the timeout's event
		r := &runs[next]
		next++
		for r.snd.Stats.Timeouts == 0 && r.p.e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("flushing a %d-packet flight: %.0f allocations, want 0", len(runs[1].want), allocs)
	}
	for i := range runs {
		r := &runs[i]
		before := len(r.sent)
		r.p.e.RunUntil(r.p.e.Now().Add(units.Microsecond)) // the first retransmission reaches the tap
		if got := slices.Concat(r.sent[before:], mustLost(t, r.snd)); r.snd.Stats.Timeouts != 1 || !slices.Equal(got, r.want) {
			t.Errorf("%d timeouts; retransmitted then lost %d sequences, want the flight's %d oldest first",
				r.snd.Stats.Timeouts, len(got), len(r.want))
		}
	}
}
