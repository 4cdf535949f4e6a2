package transport

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// After construction a lossless transfer allocates next to nothing per data
// packet: packets come from the hosts' pools in chunks, per-sequence state
// lives in presized tables, the queues reuse their arrays. What remains is
// the one-off growth of those pools on a cold engine and cold hosts.
func TestLosslessTransferAllocsPerPacket(t *testing.T) {
	const total = units.MB
	cfg := Config{InitWindow: 10 * units.MB, ExpectedRTT: 2 * units.Microsecond}
	pkts := float64((total + DefaultMSS - 1) / DefaultMSS)

	type flow struct {
		p    *pair
		snd  *Sender
		recv *Receiver
	}
	const runs = 5
	flows := make([]flow, 0, runs+1) // AllocsPerRun makes one warm-up call
	for i := 0; i < cap(flows); i++ {
		p := newPair(t, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{})
		f := flow{p: p,
			snd:  NewSender(p.src, 1, p.dst.ID(), 0, total, cfg, nil),
			recv: NewReceiver(p.dst, 1, p.src.ID(), total, nil)}
		p.src.Bind(1, f.snd)
		p.dst.Bind(1, f.recv)
		flows = append(flows, f)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() { // each call is a whole transfer
		f := flows[next]
		next++
		f.snd.Start(f.p.e)
		f.p.e.Run()
		if !f.recv.Done() || !f.snd.Done() {
			t.Fatal("transfer incomplete")
		}
	})
	if perPkt := avg / pkts; perPkt > 0.25 {
		t.Fatalf("lossless 1 MB transfer: %.0f allocations, %.3f per data packet, want <= 0.25", avg, perPkt)
	}
}

// SupplyBacklog is a running count; it must equal the bytes actually waiting
// in the supply queue at every point of a supply/send interleaving.
func TestSupplyBacklogMatchesQueue(t *testing.T) {
	p := newPair(t, 10*units.Gbps, 5*units.Microsecond, netsim.QueueConfig{})
	recv := NewReceiver(p.dst, 1, p.src.ID(), 0, nil)
	// A two-packet window makes the queue build up and drain by ACK clock.
	snd := NewStreamingSender(p.src, 1, p.dst.ID(), 0,
		Config{InitWindow: 3000, ExpectedRTT: 12 * units.Microsecond}, nil)
	p.src.Bind(1, snd)
	p.dst.Bind(1, recv)
	snd.Start(p.e)

	check := func(when string) {
		t.Helper()
		var sum units.ByteSize
		for _, sz := range snd.supplyQ.live() {
			sum += sz
		}
		if got := snd.SupplyBacklog(); got != sum {
			t.Fatalf("%s: SupplyBacklog = %v, queue holds %v", when, got, sum)
		}
	}
	var supplied units.ByteSize
	peak := units.ByteSize(0)
	for burst := 0; burst < 20; burst++ {
		at := units.Time(burst) * units.Time(7*units.Microsecond)
		p.e.Schedule(at, func(e *sim.Engine) {
			for i := 0; i < 5*(1+burst%4); i++ {
				size := units.ByteSize(900 + 10*i + burst)
				snd.Supply(e, size)
				supplied += size
				check("after Supply")
			}
		})
	}
	for p.e.Step() { // every ACK may send from the queue
		check("after an event")
		if b := snd.SupplyBacklog(); b > peak {
			peak = b
		}
	}
	snd.CloseSupply(p.e)
	if peak == 0 {
		t.Fatal("the supply queue never built up: the interleaving tested nothing")
	}
	if snd.SupplyBacklog() != 0 || recv.Bytes() != supplied || !snd.Done() {
		t.Fatalf("drained: backlog %v, received %v of %v, done %v",
			snd.SupplyBacklog(), recv.Bytes(), supplied, snd.Done())
	}
}
