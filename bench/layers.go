package main

import (
	"fmt"
	"runtime"
	"time"

	"incastproxy/internal/netsim"
	"incastproxy/internal/proxy"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
	"incastproxy/internal/wire"
)

// The layer micro-loops time calls into each layer's public functions, from
// here, on fixtures small enough that one repetition takes milliseconds. A
// timing is the shortest of microReps repetitions of microIters iterations;
// an allocation figure is the Mallocs delta of one repetition per iteration.
const (
	microReps  = 5
	microIters = 100_000
)

// micro times iters calls of f per repetition, setting up afresh with prep
// before each repetition, and returns nanoseconds and allocations per call.
func micro(iters int, prep func(), f func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	best := time.Duration(1<<63 - 1)
	for r := 0; r < microReps; r++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if d < best {
			best = d
		}
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	}
	return float64(best.Nanoseconds()) / float64(iters), allocs
}

func noopEvent(*sim.Engine) {}

// link joins two fresh hosts with one 100 Gb/s, 1 us link whose a-side
// egress queue is q.
func link(q netsim.QueueConfig) (a, b *netsim.Host) {
	a, b = netsim.NewHost(1, "a"), netsim.NewHost(2, "b")
	netsim.Connect(a, b, 100*units.Gbps, units.Microsecond, q, netsim.QueueConfig{}, nil)
	return a, b
}

func dataPacket(p *netsim.Packet, dst netsim.NodeID) {
	p.Flow, p.Kind, p.Dst = 1, netsim.Data, dst
	p.Size, p.FullSize = transport.DefaultMSS, transport.DefaultMSS
	p.Trimmed, p.Hops = false, 0
}

func simLayer(m map[string]float64) {
	// Schedule one event and fire one event, with 1024 others pending so
	// that the heap sifts through ten levels as it does in a cell.
	e := sim.New()
	for i := 0; i < 1024; i++ {
		e.Schedule(units.MaxTime-1, noopEvent)
	}
	m["sim.schedule_fire_ns"], m["sim.schedule_fire_allocs"] = micro(microIters, nil, func(int) {
		e.After(units.Nanosecond, noopEvent)
		e.Step()
	})
	tm := sim.NewTimer(e, noopEvent)
	m["sim.timer_rearm_ns"], _ = micro(microIters, nil, func(i int) {
		tm.ArmAfter(units.Duration(100 + i%10))
	})
	tm.Cancel()
}

func netsimLayer(m map[string]float64) {
	// A data packet from one host's NIC across a link to a bound endpoint:
	// enqueue, serialization event, delivery event, demultiplex.
	e := sim.New()
	a, b := link(netsim.QueueConfig{})
	b.Bind(1, netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {}))
	m["netsim.port_send_ns"], m["netsim.port_send_allocs"] = micro(microIters, nil, func(int) {
		p := a.NewPacket()
		dataPacket(p, b.ID())
		a.Send(e, p)
		e.Run()
	})

	// One sprayed switch hop: FIB lookup, per-packet ECMP choice among
	// four next hops, egress port, delivery.
	sw := netsim.NewSwitch(10, "sw", rng.New(1), true)
	const dst = netsim.NodeID(99)
	for i := 0; i < 4; i++ {
		next := netsim.NewHost(netsim.NodeID(20+i), fmt.Sprintf("next%d", i))
		out, _ := netsim.Connect(sw, next, 100*units.Gbps, units.Microsecond,
			netsim.QueueConfig{}, netsim.QueueConfig{}, nil)
		sw.AddRoute(dst, out)
	}
	pkt := &netsim.Packet{}
	m["netsim.switch_forward_ns"], _ = micro(microIters, nil, func(i int) {
		dataPacket(pkt, dst)
		pkt.ID = uint64(i)
		sw.Receive(e, pkt, nil)
		e.Run()
	})

	// A data packet offered to a full trimming queue: cut to a header and
	// queued in the priority band. The engine never runs, so the queue
	// stays full; each repetition gets a fresh port.
	var full *netsim.Host
	m["netsim.trim_ns"], _ = micro(microIters, func() {
		full, _ = link(netsim.QueueConfig{Capacity: 4 * transport.DefaultMSS, Trim: true})
		for i := 0; i < 8; i++ {
			p := full.NewPacket()
			dataPacket(p, 2)
			full.Send(e, p)
		}
	}, func(int) {
		dataPacket(pkt, 2)
		full.Send(e, pkt)
	})
}

func transportLayer(m map[string]float64) error {
	// A 1 MB lossless transfer between two hosts on one link, per data
	// packet: send, deliver, ACK, window update.
	const total = units.MB
	pkts := float64((total + transport.DefaultMSS - 1) / transport.DefaultMSS)
	reps := int(microIters/pkts) + 1
	incomplete := false
	ns, allocs := micro(reps, nil, func(int) {
		e := sim.New()
		a, b := link(netsim.QueueConfig{})
		recv := transport.NewReceiver(b, 1, a.ID(), total, nil)
		snd := transport.NewSender(a, 1, b.ID(), 0, total,
			transport.Config{InitWindow: 10 * units.MB, ExpectedRTT: 2 * units.Microsecond}, nil)
		a.Bind(1, snd)
		b.Bind(1, recv)
		snd.Start(e)
		e.RunUntil(units.Time(units.Second))
		incomplete = incomplete || !recv.Done()
	})
	if incomplete {
		return fmt.Errorf("transport micro-loop: 1 MB lossless transfer did not complete")
	}
	m["transport.pkt_ns"], m["transport.pkt_allocs"] = ns/pkts, allocs/pkts
	return nil
}

func proxyLayer(m map[string]float64) {
	// Streamlined.Handle with the workload's default 420 ns processing
	// delay, then the engine drained: the delay event, the send, the
	// delivery. A data packet is forwarded; a trimmed header is answered
	// with a fresh NACK.
	e := sim.New()
	host, _ := link(netsim.QueueConfig{})
	p := proxy.NewStreamlined(host, 1, 2, 2, rng.Constant{D: 420 * units.Nanosecond}, nil)
	pkt := &netsim.Packet{}
	m["proxy.streamlined_fwd_ns"], m["proxy.streamlined_fwd_allocs"] = micro(microIters, nil, func(int) {
		dataPacket(pkt, host.ID())
		p.Handle(e, pkt)
		e.Run()
	})
	m["proxy.streamlined_nack_ns"], m["proxy.streamlined_nack_allocs"] = micro(microIters, nil, func(int) {
		dataPacket(pkt, host.ID())
		pkt.Trim()
		p.Handle(e, pkt)
		e.Run()
	})
}

func topoLayer(m map[string]float64) {
	small := topo.DefaultConfig()
	m["topo.build_8x8_ms"] = minDuration(microReps, func() { topo.Build(sim.New(), small) }).Seconds() * 1e3

	// The large fabric takes over a second to build, so it is built twice,
	// not microReps times.
	var net *topo.Network
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["topo.build_32x128_ms"] = minDuration(2, func() { net = topo.Build(sim.New(), largeFabric()) }).Seconds() * 1e3
	runtime.ReadMemStats(&ms1)
	m["topo.build_32x128_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / 2

	// What sizing 4096 senders' windows asks of the fabric: every DC-0
	// host's path to one receiver.
	recv := net.Hosts[1][0]
	t0 := time.Now()
	for _, h := range net.Hosts[0] {
		net.PathRTT(h, recv, transport.DefaultMSS, netsim.ControlSize)
	}
	m["topo.pathrtt_all_ms"] = time.Since(t0).Seconds() * 1e3
}

func wireLayer(m map[string]float64) error {
	dial := wire.Dial{Target: "127.0.0.1:7101"}
	buf := make([]byte, 0, 256)
	var failed error
	m["wire.dial_roundtrip_ns"], m["wire.dial_roundtrip_allocs"] = micro(microIters, nil, func(int) {
		out, err := wire.AppendDial(buf[:0], dial)
		if err == nil {
			var got wire.Dial
			if got, _, err = wire.ParseDial(out); err == nil && got.Target != dial.Target {
				err = fmt.Errorf("wire micro-loop: parsed target %q, want %q", got.Target, dial.Target)
			}
		}
		if err != nil {
			failed = err
		}
	})
	return failed
}

// layerSuite runs every micro-loop. It is fixed work, the same on every
// workload and seed.
func layerSuite(m map[string]float64) error {
	simLayer(m)
	netsimLayer(m)
	proxyLayer(m)
	topoLayer(m)
	if err := transportLayer(m); err != nil {
		return err
	}
	return wireLayer(m)
}
