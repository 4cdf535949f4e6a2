package transport

import (
	"testing"

	"incastproxy/internal/netsim"
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
