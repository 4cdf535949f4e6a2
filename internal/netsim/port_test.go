package netsim

import (
	"testing"

	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// sinkNode records arrivals with timestamps.
type sinkNode struct {
	id      NodeID
	arrived []*Packet
	times   []units.Time
}

func (s *sinkNode) ID() NodeID   { return s.id }
func (s *sinkNode) Name() string { return "sink" }
func (s *sinkNode) Receive(e *sim.Engine, p *Packet, _ *Port) {
	s.arrived = append(s.arrived, p)
	s.times = append(s.times, e.Now())
}

func TestLinkSerializationPlusPropagation(t *testing.T) {
	e := sim.New()
	a := &sinkNode{id: 1}
	b := &sinkNode{id: 2}
	pa, _ := Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)

	p := dataPkt(1, 1500)
	pa.Send(e, p)
	e.Run()

	if len(b.arrived) != 1 {
		t.Fatalf("arrived = %d packets", len(b.arrived))
	}
	// 1500B @ 100Gbps = 120ns serialization + 1us propagation.
	want := units.Time(0).Add(120*units.Nanosecond + units.Microsecond)
	if b.times[0] != want {
		t.Fatalf("arrival at %v, want %v", b.times[0], want)
	}
}

func TestLinkBackToBackPacketsPipelined(t *testing.T) {
	e := sim.New()
	a := &sinkNode{id: 1}
	b := &sinkNode{id: 2}
	pa, _ := Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)

	// Two packets sent at t=0: second finishes serializing at 240ns,
	// arrives at 240ns+1us. Propagation pipelines with serialization.
	pa.Send(e, dataPkt(1, 1500))
	pa.Send(e, dataPkt(2, 1500))
	e.Run()

	if len(b.arrived) != 2 {
		t.Fatalf("arrived = %d", len(b.arrived))
	}
	want0 := units.Time(0).Add(120*units.Nanosecond + units.Microsecond)
	want1 := units.Time(0).Add(240*units.Nanosecond + units.Microsecond)
	if b.times[0] != want0 || b.times[1] != want1 {
		t.Fatalf("arrivals at %v/%v, want %v/%v", b.times[0], b.times[1], want0, want1)
	}
}

func TestLinkThroughputAtLineRate(t *testing.T) {
	e := sim.New()
	a := &sinkNode{id: 1}
	b := &sinkNode{id: 2}
	pa, _ := Connect(a, b, 10*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)

	const n = 1000
	for i := 0; i < n; i++ {
		pa.Send(e, dataPkt(uint64(i), 1500))
	}
	end := e.Run()
	// n*1500B @ 10Gbps = 1.2ms.
	want := units.Time(0).Add(units.Duration(n) * 1200 * units.Nanosecond)
	if end != want {
		t.Fatalf("drain time %v, want %v", end, want)
	}
	if len(b.arrived) != n {
		t.Fatalf("arrived %d, want %d", len(b.arrived), n)
	}
}

func TestFullDuplexIndependentDirections(t *testing.T) {
	e := sim.New()
	a := &sinkNode{id: 1}
	b := &sinkNode{id: 2}
	pa, pb := Connect(a, b, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)

	pa.Send(e, dataPkt(1, 1500))
	pb.Send(e, dataPkt(2, 1500))
	e.Run()
	if len(a.arrived) != 1 || len(b.arrived) != 1 {
		t.Fatal("both directions should deliver independently")
	}
	if a.times[0] != b.times[0] {
		t.Fatal("full duplex directions should not serialize against each other")
	}
}

func TestPortAccessors(t *testing.T) {
	a := &sinkNode{id: 1}
	b := &sinkNode{id: 2}
	pa, pb := Connect(a, b, 100*units.Gbps, 3*units.Microsecond, QueueConfig{Capacity: 100}, QueueConfig{}, rng.New(1))
	if pa.Peer() != pb || pb.Peer() != pa {
		t.Fatal("peer wiring wrong")
	}
	if pa.Owner() != Node(a) || pa.Rate() != 100*units.Gbps || pa.Delay() != 3*units.Microsecond {
		t.Fatal("accessors wrong")
	}
	if pa.Label() == "" {
		t.Fatal("label empty")
	}
	if pa.QueuedBytes() != 0 {
		t.Fatal("fresh port should have empty queue")
	}
}

func TestSwitchForwardsViaFIB(t *testing.T) {
	e := sim.New()
	sw := NewSwitch(10, "sw", rng.New(1), false)
	h1 := &sinkNode{id: 1}
	h2 := &sinkNode{id: 2}
	_, p1up := Connect(h1, sw, 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	_ = p1up
	swToH2, _ := func() (*Port, *Port) {
		return Connect(sw, h2, 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	}()
	sw.AddRoute(2, swToH2)

	pkt := dataPkt(1, 1500)
	pkt.Dst = 2
	sw.Receive(e, pkt, nil)
	e.Run()
	if len(h2.arrived) != 1 {
		t.Fatal("switch did not forward to h2")
	}
	if pkt.Hops != 1 {
		t.Fatalf("hops = %d", pkt.Hops)
	}
}

// A switch nobody gave a route to (no AddRoute, no SetRoute) has no next hop
// for anything, and a wired one none for a destination it was not given.
func TestSwitchFIBMissCounted(t *testing.T) {
	e := sim.New()
	sw := NewSwitch(10, "sw", rng.New(1), false)
	pkt := dataPkt(1, 1500)
	pkt.Dst = 99
	sw.Receive(e, pkt, nil)
	if sw.Misses != 1 || sw.Routes(99) != nil {
		t.Fatalf("unwired switch: Misses = %d, Routes = %v", sw.Misses, sw.Routes(99))
	}
	out, _ := Connect(sw, &sinkNode{id: 2}, 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	sw.AddRoute(2, out)
	pkt.Hops = 0
	sw.Receive(e, pkt, nil)
	if sw.Misses != 2 || sw.Routes(99) != nil || len(sw.Routes(2)) != 1 {
		t.Fatalf("wired switch: Misses = %d, Routes(99) = %v, Routes(2) = %v", sw.Misses, sw.Routes(99), sw.Routes(2))
	}
	// A Route set before the table is made stays the route, and one set
	// after replaces it: the zero Route has no next hop for anything.
	computed := NewSwitch(11, "computed", nil, false)
	computed.SetRoute(Route{Below: Block{Base: 0, Span: 100}, Div: 100, Down: []*Port{out}})
	computed.AddRoute(2, out, out)
	if len(computed.Routes(2)) != 1 || len(computed.Routes(99)) != 1 || computed.Routes(100) != nil {
		t.Fatalf("AddRoute after SetRoute: Routes(2) = %v, Routes(99) = %v, Routes(100) = %v, want SetRoute's",
			computed.Routes(2), computed.Routes(99), computed.Routes(100))
	}
	sw.SetRoute(Route{})
	if sw.Routes(2) != nil {
		t.Fatalf("zero Route after AddRoute: Routes(2) = %v, want none", sw.Routes(2))
	}
}

func TestSwitchSprayingUsesAllPaths(t *testing.T) {
	e := sim.New()
	sw := NewSwitch(10, "sw", rng.New(42), true)
	dst := &sinkNode{id: 2}
	mids := make([]*sinkNode, 4)
	counts := make([]int, 4)
	for i := range mids {
		mids[i] = &sinkNode{id: NodeID(100 + i)}
		out, _ := Connect(sw, mids[i], 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
		sw.AddRoute(dst.id, out)
	}
	for i := 0; i < 400; i++ {
		pkt := dataPkt(uint64(i), 1500)
		pkt.Dst = dst.id
		pkt.Flow = 1 // same flow: spraying must still spread
		sw.Receive(e, pkt, nil)
	}
	e.Run()
	for i, m := range mids {
		counts[i] = len(m.arrived)
		if counts[i] < 50 {
			t.Fatalf("path %d got %d/400 packets; spraying not uniform: %v", i, counts[i], counts)
		}
	}
}

func TestSwitchPerFlowECMPIsSticky(t *testing.T) {
	e := sim.New()
	sw := NewSwitch(10, "sw", rng.New(42), false)
	dst := &sinkNode{id: 2}
	mids := make([]*sinkNode, 4)
	for i := range mids {
		mids[i] = &sinkNode{id: NodeID(100 + i)}
		out, _ := Connect(sw, mids[i], 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
		sw.AddRoute(dst.id, out)
	}
	for i := 0; i < 100; i++ {
		pkt := dataPkt(uint64(i), 1500)
		pkt.Dst = dst.id
		pkt.Flow = 7
		sw.Receive(e, pkt, nil)
	}
	e.Run()
	nonEmpty := 0
	for _, m := range mids {
		if len(m.arrived) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("per-flow ECMP spread one flow over %d paths", nonEmpty)
	}
}

func TestRoutingLoopPanics(t *testing.T) {
	e := sim.New()
	s1 := NewSwitch(1, "s1", rng.New(1), false)
	s2 := NewSwitch(2, "s2", rng.New(2), false)
	p12, p21 := Connect(s1, s2, 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	s1.AddRoute(99, p12)
	s2.AddRoute(99, p21)
	pkt := dataPkt(1, 100)
	pkt.Dst = 99
	defer func() {
		if recover() == nil {
			t.Fatal("routing loop should panic")
		}
	}()
	s1.Receive(e, pkt, nil)
	e.Run()
}

func TestHostDemuxAndCatchAll(t *testing.T) {
	e := sim.New()
	h := NewHost(1, "h1")
	src := &sinkNode{id: 2}
	_, toHost := Connect(src, h, 100*units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	_ = toHost

	var flowGot, catchGot int
	h.Bind(5, EndpointFunc(func(*sim.Engine, *Packet) { flowGot++ }))
	h.SetCatchAll(EndpointFunc(func(*sim.Engine, *Packet) { catchGot++ }))

	p1 := dataPkt(1, 100)
	p1.Flow = 5
	h.Receive(e, p1, nil)
	p2 := dataPkt(2, 100)
	p2.Flow = 6
	h.Receive(e, p2, nil)
	if flowGot != 1 || catchGot != 1 {
		t.Fatalf("flowGot=%d catchGot=%d", flowGot, catchGot)
	}

	h.Unbind(5)
	h.Receive(e, p1, nil)
	if catchGot != 2 {
		t.Fatal("unbound flow should hit catch-all")
	}
}

// A host keeps its first binding inline and makes the map for the second, so
// a flow sits in exactly one of the two places whatever order bindings come
// and go in: each step names where every flow's packets must land.
func TestHostBindUnbindRebind(t *testing.T) {
	const catchAll, unclaimed = -1, -2
	h := NewHost(1, "h1")
	got := map[FlowID]int{} // flow -> the endpoint that last took a packet of it
	endpoint := func(id int) Endpoint {
		return EndpointFunc(func(_ *sim.Engine, p *Packet) { got[p.Flow] = id })
	}
	steps := []struct {
		name string
		do   func()
		want map[FlowID]int
	}{
		{"nothing bound", func() {}, map[FlowID]int{5: unclaimed, 6: unclaimed}},
		{"bind one", func() { h.Bind(5, endpoint(1)) }, map[FlowID]int{5: 1, 6: unclaimed}},
		{"bind a second", func() { h.Bind(6, endpoint(2)) }, map[FlowID]int{5: 1, 6: 2, 7: unclaimed}},
		{"rebind the second in place", func() { h.Bind(6, endpoint(3)) }, map[FlowID]int{5: 1, 6: 3}},
		{"unbind the first", func() { h.Unbind(5) }, map[FlowID]int{5: unclaimed, 6: 3}},
		{"rebind the second while the first slot is free", func() { h.Bind(6, endpoint(4)) }, map[FlowID]int{5: unclaimed, 6: 4}},
		{"bind a third", func() { h.Bind(7, endpoint(5)) }, map[FlowID]int{5: unclaimed, 6: 4, 7: 5}},
		{"rebind the third in place", func() { h.Bind(7, endpoint(6)) }, map[FlowID]int{6: 4, 7: 6}},
		{"unbind the second", func() { h.Unbind(6) }, map[FlowID]int{5: unclaimed, 6: unclaimed, 7: 6}},
		{"catch-all takes the unbound", func() { h.SetCatchAll(endpoint(catchAll)) }, map[FlowID]int{5: catchAll, 6: catchAll, 7: 6}},
		{"rebind the first", func() { h.Bind(5, endpoint(7)) }, map[FlowID]int{5: 7, 6: catchAll, 7: 6}},
		{"unbind everything", func() { h.Unbind(5); h.Unbind(7); h.Unbind(7) }, map[FlowID]int{5: catchAll, 6: catchAll, 7: catchAll}},
	}
	for _, step := range steps {
		step.do()
		for flow, want := range step.want {
			before := h.Unclaimed
			got[flow] = unclaimed
			p := h.NewPacket()
			p.Flow = flow
			h.Receive(sim.New(), p, nil)
			h.Release(p)
			if got[flow] != want {
				t.Errorf("%s: a packet of flow %d went to %d, want %d", step.name, flow, got[flow], want)
			}
			if counted := h.Unclaimed - before; counted != 0 != (want == unclaimed) {
				t.Errorf("%s: flow %d moved Unclaimed by %d", step.name, flow, counted)
			}
		}
	}
}

func TestHostUnclaimedCounter(t *testing.T) {
	h := NewHost(1, "h1")
	p := dataPkt(1, 100)
	h.Receive(sim.New(), p, nil)
	if h.Unclaimed != 1 {
		t.Fatalf("Unclaimed = %d", h.Unclaimed)
	}
}

func TestHostPacketIDsUnique(t *testing.T) {
	h1 := NewHost(1, "h1")
	h2 := NewHost(2, "h2")
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		a, b := h1.NewPacket(), h2.NewPacket()
		if seen[a.ID] || seen[b.ID] || a.ID == b.ID {
			t.Fatal("packet IDs must be unique across hosts")
		}
		seen[a.ID], seen[b.ID] = true, true
	}
}

func TestHostSingleNIC(t *testing.T) {
	h := NewHost(1, "h1")
	other := &sinkNode{id: 2}
	Connect(h, other, units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second NIC attachment should panic")
		}
	}()
	Connect(h, other, units.Gbps, 0, QueueConfig{}, QueueConfig{}, nil)
}

func TestHostSendReachesPeer(t *testing.T) {
	e := sim.New()
	h := NewHost(1, "h1")
	dst := &sinkNode{id: 2}
	Connect(h, dst, 100*units.Gbps, units.Microsecond, QueueConfig{}, QueueConfig{}, nil)
	pkt := h.NewPacket()
	pkt.Kind = Data
	pkt.Size = 1500
	pkt.Dst = 2
	h.Send(e, pkt)
	e.Run()
	if len(dst.arrived) != 1 {
		t.Fatal("host send did not deliver")
	}
}
