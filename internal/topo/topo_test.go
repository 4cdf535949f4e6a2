package topo

import (
	"fmt"
	"testing"
	"testing/quick"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// smallConfig is a 2x2x2 fabric with 4 backbones for fast tests.
func smallConfig() Config {
	c := DefaultConfig()
	c.Spines, c.Leaves, c.ServersPerLeaf = 2, 2, 2
	c.Backbones, c.BackbonesPerSpine = 4, 2
	return c
}

// TestDefaultConfigMatchesPaper pins the §4.1 simulation setup, field for
// field: two 8-spine x 8-leaf x 8-server datacenters joined by 64 backbone
// routers (8 per spine), 100 Gbps links with 1 µs in-DC and 1 ms long-haul
// propagation, 17.015 MB ToR buffers marking ECN between 33.2 and 136.95 KB,
// 49.8 MB backbone buffers marking between 9.96 and 39.84 MB, and packet
// spraying. These are the paper's constants, not calibration variables
// (DESIGN §8). Host NIC queues are unbounded (host memory), trimming is off
// until a scheme turns it on, and the fabric seed is not a §4.1 constant.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	c.Seed = 0
	want := Config{
		Spines: 8, Leaves: 8, ServersPerLeaf: 8,
		Backbones: 64, BackbonesPerSpine: 8,
		LinkRate:      100 * units.Gbps,
		IntraDelay:    units.Microsecond,
		InterDelay:    units.Millisecond,
		TorQueue:      netsim.QueueConfig{Capacity: 17_015_000, MarkLow: 33_200, MarkHigh: 136_950},
		BackboneQueue: netsim.QueueConfig{Capacity: 49_800_000, MarkLow: 9_960_000, MarkHigh: 39_840_000},
		Spray:         true,
	}
	if c != want {
		t.Fatalf("DefaultConfig() = %+v, want §4.1's %+v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Spines = 0 },
		func(c *Config) { c.Leaves = -1 },
		func(c *Config) { c.ServersPerLeaf = 0 },
		func(c *Config) { c.BackbonesPerSpine = 0 },
		func(c *Config) { c.Backbones = 63 }, // not Spines*BackbonesPerSpine
		func(c *Config) { c.LinkRate = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuildCounts(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	for dc := 0; dc < 2; dc++ {
		if len(n.Hosts[dc]) != 4 || len(n.Leaves[dc]) != 2 || len(n.Spines[dc]) != 2 {
			t.Fatalf("dc%d counts: hosts=%d leaves=%d spines=%d",
				dc, len(n.Hosts[dc]), len(n.Leaves[dc]), len(n.Spines[dc]))
		}
	}
	if len(n.Backbones) != 4 {
		t.Fatalf("backbones = %d", len(n.Backbones))
	}
	if len(n.Switches()) != 2*(2+2)+4 {
		t.Fatalf("switches = %d", len(n.Switches()))
	}
}

func TestBuildPaperScale(t *testing.T) {
	n := Build(sim.New(), DefaultConfig())
	if len(n.Hosts[0]) != 64 || len(n.Hosts[1]) != 64 {
		t.Fatalf("hosts: %d/%d", len(n.Hosts[0]), len(n.Hosts[1]))
	}
	if len(n.Backbones) != 64 {
		t.Fatalf("backbones: %d", len(n.Backbones))
	}
	// Every leaf must have ECMP routes to a remote host through all spines.
	remote := n.Hosts[1][0]
	routes := n.Leaves[0][0].Routes(remote.ID())
	if len(routes) != 8 {
		t.Fatalf("leaf ECMP set to remote host = %d ports, want 8 spines", len(routes))
	}
	// Every spine reaches a remote host via its 8 backbones.
	routes = n.Spines[0][0].Routes(remote.ID())
	if len(routes) != 8 {
		t.Fatalf("spine ECMP set = %d, want 8 backbones", len(routes))
	}
}

func TestIntraDCDelivery(t *testing.T) {
	e := sim.New()
	n := Build(e, smallConfig())
	src, dst := n.Hosts[0][0], n.Hosts[0][3] // different leaves
	var got *netsim.Packet
	var at units.Time
	dst.Bind(1, netsim.EndpointFunc(func(e *sim.Engine, p *netsim.Packet) {
		got, at = p, e.Now()
	}))
	pkt := src.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Dst = dst.ID()
	src.Send(e, pkt)
	e.Run()
	if got == nil {
		t.Fatal("packet not delivered intra-DC")
	}
	// 4 hops (h->leaf->spine->leaf->h), each 1us + 120ns serialization.
	want := units.Time(0).Add(4 * (units.Microsecond + 120*units.Nanosecond))
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	if got.Hops != 3 {
		t.Fatalf("hops = %d, want 3 switches", got.Hops)
	}
}

func TestInterDCDelivery(t *testing.T) {
	e := sim.New()
	n := Build(e, smallConfig())
	src, dst := n.Hosts[0][0], n.Hosts[1][0]
	var at units.Time
	delivered := false
	dst.Bind(1, netsim.EndpointFunc(func(e *sim.Engine, p *netsim.Packet) {
		delivered, at = true, e.Now()
	}))
	pkt := src.NewPacket()
	pkt.Flow = 1
	pkt.Kind = netsim.Data
	pkt.Size = 1500
	pkt.FullSize = 1500
	pkt.Dst = dst.ID()
	src.Send(e, pkt)
	e.Run()
	if !delivered {
		t.Fatal("packet not delivered inter-DC")
	}
	// Path: h->leaf(1us)->spine(1us)->bb(1ms)->spine(1ms)->leaf(1us)->h(1us):
	// 4x1us + 2x1ms + 6x120ns serialization.
	want := units.Time(0).Add(4*units.Microsecond + 2*units.Millisecond + 6*120*units.Nanosecond)
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
}

func TestPathRTTInterDC(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	rtt := n.PathRTT(n.Hosts[0][0], n.Hosts[1][0], 1500, 64)
	// Propagation: 2*(4us + 2ms); serialization: 6 hops * (120ns + 5.12ns).
	min := 2 * (4*units.Microsecond + 2*units.Millisecond)
	if rtt < min || rtt > min+10*units.Microsecond {
		t.Fatalf("inter-DC RTT = %v, want just above %v", rtt, min)
	}
}

func TestPathRTTIntraDC(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	rtt := n.PathRTT(n.Hosts[0][0], n.Hosts[0][3], 1500, 64)
	min := 2 * 4 * units.Microsecond
	if rtt < min || rtt > min+5*units.Microsecond {
		t.Fatalf("intra-DC RTT = %v, want just above %v", rtt, min)
	}
	if n.PathRTT(n.Hosts[0][0], n.Hosts[0][0], 1500, 64) != 0 {
		t.Fatal("self RTT should be 0")
	}
}

func TestBottleneckRate(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	if r := n.BottleneckRate(n.Hosts[0][0], n.Hosts[1][0]); r != 100*units.Gbps {
		t.Fatalf("bottleneck = %v", r)
	}
	if r := n.BottleneckRate(n.Hosts[0][0], n.Hosts[0][0]); r != 0 {
		t.Fatalf("self bottleneck = %v", r)
	}
}

func TestHostAccessor(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	if n.Host(0, 1, 1) != n.Hosts[0][3] {
		t.Fatal("Host(dc,leaf,idx) indexing wrong")
	}
}

func TestDownToRPort(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	h := n.Hosts[0][0]
	p := n.DownToRPort(h)
	if p.Peer().Owner() != netsim.Node(h) {
		t.Fatal("down-ToR port must feed the host")
	}
	if _, ok := p.Owner().(*netsim.Switch); !ok {
		t.Fatal("down-ToR port must belong to a leaf switch")
	}
}

// A fabric's hosts share one packet pool, which allocates in chunks that grow
// with what it has issued: every host of the default fabric taking three
// packets (a three-packet flow's burst) costs a handful of chunks for the
// whole round, not one per host at each size.
func TestPacketPoolAllocBudget(t *testing.T) {
	nets := []*Network{Build(sim.New(), DefaultConfig()), Build(sim.New(), DefaultConfig())}
	hosts := 0
	avg := testing.AllocsPerRun(1, func() { // the warm-up call takes the first fabric
		n := nets[0]
		nets = nets[1:]
		hosts = 0
		for dc := range n.Hosts {
			for _, h := range n.Hosts[dc] {
				h.NewPacket()
				h.NewPacket()
				h.NewPacket()
				hosts++
			}
		}
	})
	if avg > 10 {
		t.Errorf("%d hosts taking 3 packets each made %.0f allocations, budget 10", hosts, avg)
	}
}

// A packet released at one host is the next packet any host of the fabric
// takes, carrying the taking host's identity.
func TestReleasedPacketIsReusedAcrossHosts(t *testing.T) {
	n := Build(sim.New(), smallConfig())
	sender, receiver, other := n.Hosts[0][0], n.Hosts[1][1], n.Hosts[0][3]
	p := sender.NewPacket()
	receiver.Release(p)
	q := other.NewPacket()
	if q != p {
		t.Fatalf("%s took %p, want %p, which %s released", other.Name(), q, p, receiver.Name())
	}
	if q.Src != other.ID() || netsim.NodeID(q.ID>>32) != other.ID() {
		t.Fatalf("reused packet carries src %d, ID %#x; want host %d's", q.Src, q.ID, other.ID())
	}
}

func TestTrimDCAppliesOnlyToThatDC(t *testing.T) {
	cfg := smallConfig()
	cfg.TrimDC[0] = true
	cfg.TorQueue.Capacity = 3000 // tiny, to force trims
	e := sim.New()
	n := Build(e, cfg)
	// The fabric-wide collectors must read what the ports hold at each
	// snapshot: one walk per snapshot feeds all of them.
	reg := obs.NewRegistry()
	n.Instrument(reg)
	checkCollectors := func(when string) {
		t.Helper()
		var want netsim.QueueStats
		for _, p := range n.AllPorts() {
			st := p.Stats()
			want.Enqueued += st.Enqueued
			want.Dropped += st.Dropped
			want.Trimmed += st.Trimmed
			want.MaxBytes = max(want.MaxBytes, st.MaxBytes)
		}
		snap := reg.Snapshot()
		read := map[string]int64{}
		for _, v := range append(snap.Counters, snap.Gauges...) {
			read[v.Name] = v.Value
		}
		for name, v := range map[string]int64{
			"netsim_fabric_enqueued_total": int64(want.Enqueued), "netsim_fabric_dropped_total": int64(want.Dropped),
			"netsim_fabric_trimmed_total": int64(want.Trimmed), "netsim_fabric_max_queue_bytes": int64(want.MaxBytes),
			"netsim_fabric_queued_bytes": 0,
		} {
			if got, ok := read[name]; !ok || got != v {
				t.Errorf("%s: %s = %d (present %v), the ports sum to %d", when, name, got, ok, v)
			}
		}
	}
	checkCollectors("idle fabric")

	// Flood a DC0 down-ToR from two senders (2x100G into 100G): expect
	// trims, not drops.
	dst := n.Hosts[0][0] // binds no flow: what arrives counts in Unclaimed
	for _, src0 := range []*netsim.Host{n.Hosts[0][1], n.Hosts[0][2]} {
		for i := 0; i < 100; i++ {
			pkt := src0.NewPacket()
			pkt.Kind = netsim.Data
			pkt.Size = 1500
			pkt.FullSize = 1500
			pkt.Dst = dst.ID()
			src0.Send(e, pkt)
		}
	}
	e.Run()
	trims, drops := fabricTrimsDrops(n, 0)
	if trims == 0 {
		t.Fatal("DC0 with TrimDC should trim on overflow")
	}
	if drops != 0 {
		t.Fatalf("DC0 with TrimDC dropped %d data packets", drops)
	}
	checkCollectors("after the DC0 flood")

	// Flood a DC1 down-ToR the same way: expect drops, not trims.
	dst1 := n.Hosts[1][0]
	for _, src1 := range []*netsim.Host{n.Hosts[1][1], n.Hosts[1][2]} {
		for i := 0; i < 100; i++ {
			pkt := src1.NewPacket()
			pkt.Kind = netsim.Data
			pkt.Size = 1500
			pkt.FullSize = 1500
			pkt.Dst = dst1.ID()
			src1.Send(e, pkt)
		}
	}
	e.Run()
	trims, drops = fabricTrimsDrops(n, 1)
	if trims != 0 {
		t.Fatalf("DC1 without TrimDC trimmed %d", trims)
	}
	if drops == 0 {
		t.Fatal("DC1 without TrimDC should drop on overflow")
	}
	checkCollectors("after the DC1 flood")
}

func fabricTrimsDrops(n *Network, dc int) (trims, drops uint64) {
	for _, sw := range append(append([]*netsim.Switch{}, n.Leaves[dc]...), n.Spines[dc]...) {
		for _, p := range sw.Ports() {
			st := p.Stats()
			trims += st.Trimmed
			drops += st.Dropped
		}
	}
	return trims, drops
}

// Property: every host can reach every other host (all switches on shortest
// paths have FIB entries), for a few random fabric shapes.
func TestPropertyFullReachability(t *testing.T) {
	f := func(spines, leaves, servers uint8) bool {
		c := DefaultConfig()
		c.Spines = int(spines%3) + 1
		c.Leaves = int(leaves%3) + 1
		c.ServersPerLeaf = int(servers%2) + 1
		c.BackbonesPerSpine = 2
		c.Backbones = c.Spines * 2
		e := sim.New()
		n := Build(e, c)
		// Check routing from one host in DC0 to all hosts in both DCs.
		src := n.Hosts[0][0]
		// No host binds a flow, so each counts what reaches it in Unclaimed.
		for dc := 0; dc < 2; dc++ {
			for _, dst := range n.Hosts[dc] {
				if dst == src {
					continue
				}
				pkt := src.NewPacket()
				pkt.Kind = netsim.Data
				pkt.Size = 64
				pkt.FullSize = 64
				pkt.Dst = dst.ID()
				src.Send(e, pkt)
			}
		}
		e.Run()
		for dc := 0; dc < 2; dc++ {
			for _, dst := range n.Hosts[dc] {
				if dst != src && dst.Unclaimed != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build must panic on invalid config")
		}
	}()
	c := DefaultConfig()
	c.Spines = 0
	Build(sim.New(), c)
}

// The graph-search reference the arithmetic routes and path RTTs are checked
// against: hop distances by BFS over the attached ports, next-hop sets as
// "every port one hop closer, in attachment order", path costs as a per-link
// sum along one shortest path. It knows nothing of the fabric's shape.
type oracle struct {
	nodes map[netsim.NodeID]netsim.Node
}

func newOracle(n *Network) oracle {
	o := oracle{nodes: make(map[netsim.NodeID]netsim.Node)}
	for _, sw := range n.Switches() {
		o.nodes[sw.ID()] = sw
	}
	for dc := range n.Hosts {
		for _, h := range n.Hosts[dc] {
			o.nodes[h.ID()] = h
		}
	}
	return o
}

func oraclePorts(node netsim.Node) []*netsim.Port {
	if h, ok := node.(*netsim.Host); ok {
		return []*netsim.Port{h.NIC()}
	}
	return node.(*netsim.Switch).Ports()
}

// distTo returns hop distances to root (links are bidirectional).
func (o oracle) distTo(root netsim.NodeID) map[netsim.NodeID]int {
	dist := map[netsim.NodeID]int{root: 0}
	for frontier := []netsim.NodeID{root}; len(frontier) > 0; {
		var next []netsim.NodeID
		for _, u := range frontier {
			for _, p := range oraclePorts(o.nodes[u]) {
				v := p.Peer().Owner().ID()
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// toward returns node's ports one hop closer to the root of dist, in
// attachment order.
func toward(node netsim.Node, dist map[netsim.NodeID]int) []*netsim.Port {
	d, ok := dist[node.ID()]
	if !ok {
		return nil
	}
	var out []*netsim.Port
	for _, p := range oraclePorts(node) {
		if pd, ok := dist[p.Peer().Owner().ID()]; ok && pd == d-1 {
			out = append(out, p)
		}
	}
	return out
}

// path returns the per-link RTT sum and minimum rate along one shortest
// path from a to the root of dist (zeros when a is the root or cut off).
func (o oracle) path(a netsim.Node, dist map[netsim.NodeID]int, fwd, rev units.ByteSize) (rtt units.Duration, rate units.BitRate) {
	for cur := a; dist[cur.ID()] > 0; {
		step := toward(cur, dist)[0]
		rtt += 2*step.Delay() + step.Rate().TransmitTime(fwd) + step.Rate().TransmitTime(rev)
		if rate == 0 || step.Rate() < rate {
			rate = step.Rate()
		}
		cur = step.Peer().Owner()
	}
	return rtt, rate
}

// oracleShapes sweeps the fabric shapes the arithmetic must cover: every
// 1-3 spines x 1-3 leaves x 1-2 servers combination (single-leaf and
// single-spine included), each with and without backbones, plus the paper's
// 8x8x8.
func oracleShapes() []Config {
	shapes := []Config{DefaultConfig()}
	for spines := 1; spines <= 3; spines++ {
		for leaves := 1; leaves <= 3; leaves++ {
			for servers := 1; servers <= 2; servers++ {
				for _, perSpine := range []int{0, 2} {
					c := DefaultConfig()
					c.Spines, c.Leaves, c.ServersPerLeaf = spines, leaves, servers
					c.BackbonesPerSpine, c.Backbones = perSpine, spines*perSpine
					c.InterDelay = 100 * units.Microsecond
					shapes = append(shapes, c)
				}
			}
		}
	}
	return shapes
}

// shape names a fabric in failure messages.
func shape(c Config) string {
	return fmt.Sprintf("%dx%dx%d bb=%d", c.Spines, c.Leaves, c.ServersPerLeaf, c.Backbones)
}

func allHosts(n *Network) []*netsim.Host {
	return append(append([]*netsim.Host(nil), n.Hosts[0]...), n.Hosts[1]...)
}

// Every switch's next-hop set toward every host must be the oracle's set in
// the oracle's order: spraying indexes into the set, so a reordering moves
// every golden output even though the fabric still delivers.
func TestRoutesMatchSearchOracle(t *testing.T) {
	for _, cfg := range oracleShapes() {
		n := Build(sim.New(), cfg)
		o := newOracle(n)
		for _, dst := range allHosts(n) {
			dist := o.distTo(dst.ID())
			for _, sw := range n.Switches() {
				got, want := sw.Routes(dst.ID()), toward(sw, dist)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = got[i] == want[i]
				}
				if !same {
					t.Fatalf("%s: %s routes to %s = %v, oracle says %v",
						shape(cfg), sw.Name(), dst.Name(), portLabels(got), portLabels(want))
				}
			}
		}
	}
}

func portLabels(ports []*netsim.Port) []string {
	out := make([]string, len(ports))
	for i, p := range ports {
		out[i] = p.Label()
	}
	return out
}

// PathRTT and BottleneckRate must equal the oracle's per-link sum and
// minimum for every ordered host pair, a == b and unreachable pairs
// included.
func TestPathsMatchSearchOracle(t *testing.T) {
	const fwd, rev units.ByteSize = 1500, 64
	for _, cfg := range oracleShapes() {
		n := Build(sim.New(), cfg)
		o := newOracle(n)
		hosts := allHosts(n)
		for _, b := range hosts {
			dist := o.distTo(b.ID())
			for _, a := range hosts {
				wantRTT, wantRate := o.path(a, dist, fwd, rev)
				if got := n.PathRTT(a, b, fwd, rev); got != wantRTT {
					t.Fatalf("%s: PathRTT(%s, %s) = %v, oracle says %v", shape(cfg), a.Name(), b.Name(), got, wantRTT)
				}
				if got := n.BottleneckRate(a, b); got != wantRate {
					t.Fatalf("%s: BottleneckRate(%s, %s) = %v, oracle says %v", shape(cfg), a.Name(), b.Name(), got, wantRate)
				}
			}
		}
	}
}

// coords derives (dc, leaf) from a host's NodeID; walking every host of
// every shape pins that mapping to Build's numbering.
func TestCoordsMatchBuildOrder(t *testing.T) {
	for _, cfg := range oracleShapes() {
		n := Build(sim.New(), cfg)
		for dc := 0; dc < 2; dc++ {
			for leaf := 0; leaf < cfg.Leaves; leaf++ {
				for i := 0; i < cfg.ServersPerLeaf; i++ {
					if gotDC, gotLeaf := n.coords(n.Host(dc, leaf, i)); gotDC != dc || gotLeaf != leaf {
						t.Fatalf("%s: coords(Host(%d,%d,%d)) = (%d,%d)", shape(cfg), dc, leaf, i, gotDC, gotLeaf)
					}
				}
			}
		}
	}
}
