package topo

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// routeShapes are the fabrics the computed-route edge tests walk: the paper's
// 8x8x8 and a 3x2x2, each with and without backbones.
func routeShapes() []Config {
	small := DefaultConfig()
	small.Spines, small.Leaves, small.ServersPerLeaf = 3, 2, 2
	small.BackbonesPerSpine, small.Backbones = 2, 6
	var shapes []Config
	for _, c := range []Config{DefaultConfig(), small} {
		cut := c
		cut.BackbonesPerSpine, cut.Backbones = 0, 0
		shapes = append(shapes, c, cut)
	}
	return shapes
}

// fabricEnqueued is the number of packets any port of the fabric accepted.
func fabricEnqueued(n *Network) (total uint64) {
	for _, p := range n.AllPorts() {
		total += p.Stats().Enqueued
	}
	return total
}

// A packet for anything but a host — no node, the switch itself, another
// switch, the ID after the last host, IDs far outside the fabric — has no
// next hop at any switch: one miss each, no panic, nothing forwarded.
func TestNonHostDestinationsMiss(t *testing.T) {
	for _, cfg := range routeShapes() {
		e := sim.New()
		n := Build(e, cfg)
		lastHost := n.Hosts[1][len(n.Hosts[1])-1].ID()
		stray := []netsim.NodeID{0, -1, n.Leaves[1][0].ID(), n.Spines[0][0].ID(), n.Spines[1][cfg.Spines-1].ID(),
			lastHost + 1, lastHost + netsim.NodeID(cfg.Backbones) + 1, math.MaxInt32, math.MinInt32}
		if cfg.Backbones > 0 {
			stray = append(stray, n.Backbones[cfg.Backbones-1].ID())
		}
		for _, sw := range n.Switches() {
			for _, dst := range append(stray, sw.ID()) {
				before := sw.Misses
				if r := sw.Routes(dst); r != nil {
					t.Fatalf("%s: %s has routes %v to non-host %d", shape(cfg), sw.Name(), portLabels(r), dst)
				}
				sw.Receive(e, &netsim.Packet{ID: 1, Flow: 1, Kind: netsim.Data, Dst: dst, Size: 1500}, nil)
				if sw.Misses != before+1 {
					t.Fatalf("%s: %s given a packet for non-host %d counted %d misses, want 1",
						shape(cfg), sw.Name(), dst, sw.Misses-before)
				}
			}
		}
		if got := fabricEnqueued(n); got != 0 || e.Pending() != 0 {
			t.Fatalf("%s: stray packets were forwarded: %d enqueued, %d events pending", shape(cfg), got, e.Pending())
		}
	}
}

// A next-hop set is a window onto the switch's own port slice. It must be
// capped, or a caller appending to one would overwrite the port after it.
func TestRoutesAreCappedSubSlices(t *testing.T) {
	for _, cfg := range routeShapes() {
		n := Build(sim.New(), cfg)
		for _, sw := range n.Switches() {
			want := append([]*netsim.Port(nil), sw.Ports()...)
			for _, dst := range allHosts(n) {
				r := sw.Routes(dst.ID())
				if cap(r) != len(r) {
					t.Fatalf("%s: %s routes to %s have len %d but cap %d", shape(cfg), sw.Name(), dst.Name(), len(r), cap(r))
				}
				_ = append(r, nil)
			}
			for i, p := range sw.Ports() {
				if p != want[i] {
					t.Fatalf("%s: appending to a route of %s overwrote its port %d", shape(cfg), sw.Name(), i)
				}
			}
		}
	}
}

// oneHop returns a switch with eight equal-cost next hops toward dst, each a
// switch with no routes (the packet dies there, so forwarding it is exactly
// one hop), with the next hops held either in the switch's own table or
// computed: a leaf of the paper's fabric sending to the other DC.
func oneHop(computed bool) (e *sim.Engine, sw *netsim.Switch, dst netsim.NodeID) {
	e = sim.New()
	if computed {
		n := Build(e, DefaultConfig())
		for _, sp := range n.Spines[0] {
			sp.SetRoute(netsim.Route{})
		}
		return e, n.Leaves[0][0], n.Host(1, 0, 0).ID()
	}
	sw, dst = netsim.NewSwitch(1, "sw", nil, true), 99
	for i := 0; i < 8; i++ {
		next := netsim.NewSwitch(netsim.NodeID(2+i), fmt.Sprintf("next%d", i), nil, true)
		out, _ := netsim.Connect(sw, next, 100*units.Gbps, units.Microsecond, netsim.QueueConfig{}, netsim.QueueConfig{}, nil)
		sw.AddRoute(dst, out)
	}
	return e, sw, dst
}

// forward sends one sprayed data packet through sw and runs it to its end.
func forward(e *sim.Engine, sw *netsim.Switch, pkt *netsim.Packet, dst netsim.NodeID, id uint64) {
	*pkt = netsim.Packet{ID: id, Flow: 1, Kind: netsim.Data, Dst: dst, Size: 1500, FullSize: 1500}
	sw.Receive(e, pkt, nil)
	e.Run()
}

// Forwarding allocates nothing per packet, whether a Route or a table serves.
func TestSwitchForwardAllocatesNothing(t *testing.T) {
	for _, computed := range []bool{false, true} {
		e, sw, dst := oneHop(computed)
		pkt := new(netsim.Packet)
		for id := uint64(0); id < 64; id++ { // touch every next hop's pipe once
			forward(e, sw, pkt, dst, id)
		}
		id := uint64(0)
		if avg := testing.AllocsPerRun(200, func() { id++; forward(e, sw, pkt, dst, id) }); avg != 0 {
			t.Errorf("computed=%v: %v allocs per forwarded packet, want 0", computed, avg)
		}
		if sw.Misses != 0 {
			t.Errorf("computed=%v: %d misses at the forwarding switch", computed, sw.Misses)
		}
	}
}

func BenchmarkSwitchForward(b *testing.B) {
	for _, computed := range []bool{false, true} {
		name := "table"
		if computed {
			name = "computed"
		}
		b.Run(name, func(b *testing.B) {
			e, sw, dst := oneHop(computed)
			pkt := new(netsim.Packet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forward(e, sw, pkt, dst, uint64(i))
			}
		})
	}
}

// benchFabric is the paper's fabric with leaves x servers-per-leaf changed.
func benchFabric(leaves, servers int) Config {
	c := DefaultConfig()
	c.Leaves, c.ServersPerLeaf = leaves, servers
	return c
}

var builtFabric *Network

func BenchmarkBuild(b *testing.B) {
	for _, dims := range [][2]int{{8, 8}, {32, 128}} {
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			cfg := benchFabric(dims[0], dims[1])
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builtFabric = Build(sim.New(), cfg)
			}
		})
	}
}

// A built fabric is a handful of arrays: the 32x128 fabric has 17,664 ports,
// 8,192 hosts and 144 switches, and Build allocates nothing per port, host,
// switch, route or name: a switch's route is a value in the switch array (it
// made 43k allocations while each of those was a heap object, ~600 while a
// switch also built a generator for its spray key and a throwaway table
// lookup, and 159 while each switch's route was a closure; it makes 15).
// The collector settles first, so no cycle the test binary owes lands in the
// measured call and charges it the runtime's own allocations.
func TestBuildAllocBudget(t *testing.T) {
	cfg := benchFabric(32, 128)
	ports := len(Build(sim.New(), cfg).AllPorts())
	runtime.GC()
	avg := testing.AllocsPerRun(1, func() { builtFabric = Build(sim.New(), cfg) })
	if avg > 20 {
		t.Errorf("Build(32x128) made %.0f allocations for %d ports, budget 20", avg, ports)
	}
	t.Logf("Build(32x128): %.0f allocations, %d ports", avg, ports)
}

// Names are formatted on demand from (role, dc, index) and must be the strings
// the fabric was built with when each node held its own: Port.Label feeds
// manifests and traces.
func TestNodeNamesMatchTheirFormats(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 128}} {
		cfg := benchFabric(dims[0], dims[1])
		n := Build(sim.New(), cfg)
		names := map[netsim.NodeID]string{}
		expect := func(node netsim.Node, want string) {
			t.Helper()
			if node.Name() != want {
				t.Fatalf("%dx%d: node %d is named %q, want %q", dims[0], dims[1], node.ID(), node.Name(), want)
			}
			names[node.ID()] = want
		}
		for dc := 0; dc < 2; dc++ {
			for l, sw := range n.Leaves[dc] {
				expect(sw, fmt.Sprintf("dc%d/leaf%d", dc, l))
			}
			for s, sw := range n.Spines[dc] {
				expect(sw, fmt.Sprintf("dc%d/spine%d", dc, s))
			}
			for i, h := range n.Hosts[dc] {
				expect(h, fmt.Sprintf("dc%d/h%d", dc, i))
			}
		}
		for b, bb := range n.Backbones {
			expect(bb, fmt.Sprintf("bb%d", b))
		}
		ports := n.AllPorts()
		if want := 2*len(n.Hosts[0]) + 2*len(n.Hosts[1]) + 4*cfg.Leaves*cfg.Spines + 4*cfg.Backbones; len(ports) != want {
			t.Fatalf("%dx%d: %d ports, want %d", dims[0], dims[1], len(ports), want)
		}
		for _, p := range ports {
			if want := names[p.Owner().ID()] + "->" + names[p.Peer().Owner().ID()]; p.Label() != want {
				t.Fatalf("%dx%d: port labelled %q, want %q", dims[0], dims[1], p.Label(), want)
			}
		}
	}
}
