// Package topo builds the simulated fabrics the paper evaluates on: two
// leaf-spine datacenters (8 spines x 8 leaves x 8 servers each, §4.1)
// joined by 64 backbone routers, with every link 100 Gb/s. Intra-datacenter
// links have 1 us propagation delay; the long-haul spine<->backbone links
// default to 1 ms and are the variable Figure 3 sweeps.
//
// The fabric is regular, so nothing here searches or tabulates it: a node's
// place is its (dc, leaf, index) coordinates, and both the shortest-path ECMP
// next hops a switch sprays across (§4.1), computed per packet, and the path
// RTTs transports size their windows from are arithmetic on them. A built
// fabric holds ports and queues, nothing per (switch, host) pair.
package topo

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// Config describes the fabric. DefaultConfig returns the paper's §4.1
// parameters; tests use smaller instances.
type Config struct {
	// Per-datacenter leaf-spine dimensions.
	Spines, Leaves, ServersPerLeaf int
	// Backbones is the number of long-haul routers between the DCs;
	// each spine connects to BackbonesPerSpine of them.
	Backbones, BackbonesPerSpine int

	LinkRate units.BitRate
	// IntraDelay is the propagation delay of every in-DC link.
	IntraDelay units.Duration
	// InterDelay is the propagation delay of each spine<->backbone link
	// (the "long-haul link latency" of Figure 3).
	InterDelay units.Duration

	// TorQueue configures leaf and spine egress queues; BackboneQueue
	// configures backbone-router egress queues; HostQueue configures
	// host NIC egress (unbounded by default: host memory).
	TorQueue, BackboneQueue, HostQueue netsim.QueueConfig

	// TrimDC enables packet trimming on the switches of each DC
	// (overriding the queue configs' Trim field). The streamlined proxy
	// scheme trims in the sending datacenter.
	TrimDC [2]bool

	// Spray selects per-packet ECMP spraying (true, §4.1) or per-flow
	// hashing (false).
	Spray bool

	// Seed drives every random choice in the fabric.
	Seed int64
}

// DefaultConfig returns the exact §4.1 simulation setup.
func DefaultConfig() Config {
	return Config{
		Spines:            8,
		Leaves:            8,
		ServersPerLeaf:    8,
		Backbones:         64,
		BackbonesPerSpine: 8,
		LinkRate:          100 * units.Gbps,
		IntraDelay:        units.Microsecond,
		InterDelay:        units.Millisecond,
		TorQueue: netsim.QueueConfig{
			Capacity: 17_015_000, // 17.015 MB
			MarkLow:  33_200,     // 33.2 KB
			MarkHigh: 136_950,    // 136.95 KB
		},
		BackboneQueue: netsim.QueueConfig{
			Capacity: 49_800_000, // 49.8 MB
			MarkLow:  9_960_000,  // 9.96 MB
			MarkHigh: 39_840_000, // 39.84 MB
		},
		HostQueue: netsim.QueueConfig{}, // unbounded, unmarked
		Spray:     true,
		Seed:      1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Spines <= 0 || c.Leaves <= 0 || c.ServersPerLeaf <= 0:
		return fmt.Errorf("topo: dimensions must be positive: %+v", c)
	case c.Backbones > 0 && c.BackbonesPerSpine <= 0:
		return fmt.Errorf("topo: BackbonesPerSpine must be positive when Backbones > 0")
	case c.Backbones > 0 && c.Spines*c.BackbonesPerSpine != c.Backbones:
		return fmt.Errorf("topo: need Spines*BackbonesPerSpine == Backbones (%d*%d != %d)",
			c.Spines, c.BackbonesPerSpine, c.Backbones)
	case c.LinkRate <= 0:
		return fmt.Errorf("topo: LinkRate must be positive")
	}
	return nil
}

// Network is a built fabric attached to a simulation engine.
type Network struct {
	Cfg    Config
	Engine *sim.Engine

	// Hosts[dc][leaf*ServersPerLeaf+i] is a server in datacenter dc.
	Hosts     [2][]*netsim.Host
	Leaves    [2][]*netsim.Switch
	Spines    [2][]*netsim.Switch
	Backbones []*netsim.Switch
}

// Build constructs the two-DC fabric. It panics on invalid configuration
// (construction errors are programmer errors, not runtime conditions).
func Build(e *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{Cfg: cfg, Engine: e}
	src := rng.New(cfg.Seed)
	var lastID netsim.NodeID
	nextID := func() netsim.NodeID { lastID++; return lastID }

	for dc := 0; dc < 2; dc++ {
		tor := cfg.TorQueue
		tor.Trim = cfg.TrimDC[dc]
		for l := 0; l < cfg.Leaves; l++ {
			sw := netsim.NewSwitch(nextID(), fmt.Sprintf("dc%d/leaf%d", dc, l), src.Split(int64(dc*1000+l)), cfg.Spray)
			n.Leaves[dc] = append(n.Leaves[dc], sw)
		}
		for s := 0; s < cfg.Spines; s++ {
			sw := netsim.NewSwitch(nextID(), fmt.Sprintf("dc%d/spine%d", dc, s), src.Split(int64(dc*1000+100+s)), cfg.Spray)
			n.Spines[dc] = append(n.Spines[dc], sw)
		}
		for l := 0; l < cfg.Leaves; l++ {
			for i := 0; i < cfg.ServersPerLeaf; i++ {
				h := netsim.NewHost(nextID(), fmt.Sprintf("dc%d/h%d", dc, l*cfg.ServersPerLeaf+i))
				n.Hosts[dc] = append(n.Hosts[dc], h)
				// Host <-> leaf: leaf egress uses the ToR queue
				// (with this DC's trim setting); host egress is
				// the NIC queue.
				netsim.Connect(h, n.Leaves[dc][l], cfg.LinkRate, cfg.IntraDelay, cfg.HostQueue, tor, src)
			}
		}
		// Full leaf<->spine bipartite mesh.
		for l := 0; l < cfg.Leaves; l++ {
			for s := 0; s < cfg.Spines; s++ {
				netsim.Connect(n.Leaves[dc][l], n.Spines[dc][s], cfg.LinkRate, cfg.IntraDelay, tor, tor, src)
			}
		}
	}

	// Backbone routers: backbone b connects spine b/BackbonesPerSpine in
	// each DC over the long-haul links.
	for b := 0; b < cfg.Backbones; b++ {
		bb := netsim.NewSwitch(nextID(), fmt.Sprintf("bb%d", b), src.Split(int64(5000+b)), cfg.Spray)
		n.Backbones = append(n.Backbones, bb)
		s := b / cfg.BackbonesPerSpine
		for dc := 0; dc < 2; dc++ {
			tor := cfg.TorQueue
			tor.Trim = cfg.TrimDC[dc]
			netsim.Connect(n.Spines[dc][s], bb, cfg.LinkRate, cfg.InterDelay, tor, cfg.BackboneQueue, src)
		}
	}

	n.installRoutes()
	return n
}

// Host returns server idx under leaf in datacenter dc.
func (n *Network) Host(dc, leaf, idx int) *netsim.Host {
	return n.Hosts[dc][leaf*n.Cfg.ServersPerLeaf+idx]
}

// installRoutes gives every switch its shortest-path ECMP next hops as a
// function of the destination's coordinates; nothing is stored per
// destination. A switch at depth d — backbone 0, spine 1, leaf 2 — is above
// the hosts whose first d coordinates are its own: toward those its next hop
// is the down-port numbered by coordinate d, toward any other host all of its
// up-ports. Ports are attached down-ports first (backbone: DC0, DC1; spine:
// leaves, then backbones; leaf: hosts, then spines) and each set is a capped
// sub-slice in that order, because spraying indexes into it. Read-only, as
// Switch.SetRoute requires: any shard's engine may be the caller.
func (n *Network) installRoutes() {
	c := &n.Cfg
	install := func(sw *netsim.Switch, depth, down int, own [2]int) {
		ports := sw.Ports()
		up := ports[down:len(ports):len(ports)]
		sw.SetRoute(func(dst netsim.NodeID) []*netsim.Port {
			at, ok := c.locate(dst)
			if !ok || depth > 0 && at[0] != own[0] && c.Backbones == 0 {
				return nil // not a host, or in the other DC with no way across
			}
			for i := 0; i < depth; i++ {
				if at[i] != own[i] {
					return up
				}
			}
			return ports[at[depth] : at[depth]+1 : at[depth]+1]
		})
	}
	for dc := 0; dc < 2; dc++ {
		for l, sw := range n.Leaves[dc] {
			install(sw, 2, c.ServersPerLeaf, [2]int{dc, l})
		}
		for _, sw := range n.Spines[dc] {
			install(sw, 1, c.Leaves, [2]int{dc})
		}
	}
	for _, bb := range n.Backbones {
		install(bb, 0, 2, [2]int{})
	}
}

// locate decodes a NodeID into a host's coordinates (dc, leaf, index under
// the leaf): Build numbers each DC as one block from 1 — leaves, spines, then
// hosts leaf-major. ok is false for an ID that is not a host's.
func (c *Config) locate(id netsim.NodeID) (at [3]int, ok bool) {
	hosts := c.Leaves * c.ServersPerLeaf
	h := int(id) - 1
	if block := c.Leaves + c.Spines + hosts; h >= block {
		at[0], h = 1, h-block
	}
	if h -= c.Leaves + c.Spines; h < 0 || h >= hosts {
		return at, false
	}
	at[1] = int(uint32(h) / uint32(c.ServersPerLeaf)) // the one division a hop pays
	at[2] = h - at[1]*c.ServersPerLeaf
	return at, true
}

// PathRTT is the round-trip time over a path of intra in-DC links and inter
// long-haul links, for a data packet of size fwd answered by a control
// packet of size rev: per link, the propagation delay and the serialization
// time in both directions. It is the one closed form behind
// Network.PathRTT and the analytical model's base RTTs.
func (c Config) PathRTT(intra, inter int, fwd, rev units.ByteSize) units.Duration {
	perLink := c.LinkRate.TransmitTime(fwd) + c.LinkRate.TransmitTime(rev)
	return 2*(units.Duration(intra)*c.IntraDelay+units.Duration(inter)*c.InterDelay) +
		units.Duration(intra+inter)*perLink
}

// PathRTT estimates the round-trip time between hosts a and b over one
// shortest path (zero when a == b or b is unreachable). Transports use it
// to size initial windows (IW = 1 BDP, §4.1) and initial RTOs.
func (n *Network) PathRTT(a, b *netsim.Host, fwd, rev units.ByteSize) units.Duration {
	intra, inter := n.pathHops(a, b)
	return n.Cfg.PathRTT(intra, inter, fwd, rev)
}

// BottleneckRate returns the minimum link rate on a shortest path between a
// and b: every link runs at LinkRate, so that, or zero when there is no
// path.
func (n *Network) BottleneckRate(a, b *netsim.Host) units.BitRate {
	if intra, _ := n.pathHops(a, b); intra == 0 {
		return 0
	}
	return n.Cfg.LinkRate
}

// pathHops counts the in-DC and long-haul links on a shortest path from a
// to b: host-leaf-host under one leaf, host-leaf-spine-leaf-host across
// leaves, and spine-backbone-spine on top of that across DCs.
func (n *Network) pathHops(a, b *netsim.Host) (intra, inter int) {
	adc, aleaf := n.coords(a)
	bdc, bleaf := n.coords(b)
	switch {
	case a == b, adc != bdc && n.Cfg.Backbones == 0:
		return 0, 0
	case adc != bdc:
		return 4, 2
	case aleaf != bleaf:
		return 4, 0
	}
	return 2, 0
}

// coords is a host's datacenter and leaf.
func (n *Network) coords(h *netsim.Host) (dc, leaf int) {
	at, _ := n.Cfg.locate(h.ID())
	return at[0], at[1]
}

// Switches returns every switch (leaves, spines, backbones) for telemetry
// sweeps.
func (n *Network) Switches() []*netsim.Switch {
	var out []*netsim.Switch
	for dc := 0; dc < 2; dc++ {
		out = append(out, n.Leaves[dc]...)
		out = append(out, n.Spines[dc]...)
	}
	return append(out, n.Backbones...)
}

// AllPorts returns every port in the fabric (both directions of every
// link): switch egress ports plus host NICs.
func (n *Network) AllPorts() []*netsim.Port {
	var out []*netsim.Port
	for _, sw := range n.Switches() {
		out = append(out, sw.Ports()...)
	}
	for dc := 0; dc < 2; dc++ {
		for _, h := range n.Hosts[dc] {
			if h.NIC() != nil {
				out = append(out, h.NIC())
			}
		}
	}
	return out
}

// SetTracer attaches (or with nil, detaches) an event tracer to every port
// queue in the fabric: trims, drops, marks, down-drops, and corruptions
// become instants on the affected flow's track.
func (n *Network) SetTracer(t *obs.Tracer) {
	for _, p := range n.AllPorts() {
		p.SetTracer(t)
	}
}

// Instrument exports fabric-wide aggregate queue counters to the registry as
// lazy collectors (netsim_fabric_*). Per-port series would be 18k metrics on
// the paper's full fabric; experiments that need one port's detail call
// Port.Instrument on just that port.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ports := n.AllPorts()
	sum := func(pick func(*netsim.QueueStats) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, p := range ports {
				st := p.Stats()
				total += pick(&st)
			}
			return total
		}
	}
	reg.CounterFunc("netsim_fabric_enqueued_total", sum(func(s *netsim.QueueStats) uint64 { return s.Enqueued }))
	reg.CounterFunc("netsim_fabric_dropped_total", sum(func(s *netsim.QueueStats) uint64 { return s.Dropped }))
	reg.CounterFunc("netsim_fabric_trimmed_total", sum(func(s *netsim.QueueStats) uint64 { return s.Trimmed }))
	reg.CounterFunc("netsim_fabric_marked_total", sum(func(s *netsim.QueueStats) uint64 { return s.Marked }))
	reg.CounterFunc("netsim_fabric_corrupted_total", sum(func(s *netsim.QueueStats) uint64 { return s.Corrupted }))
	reg.GaugeFunc("netsim_fabric_max_queue_bytes", func() int64 {
		var hi units.ByteSize
		for _, p := range ports {
			if m := p.Stats().MaxBytes; m > hi {
				hi = m
			}
		}
		return int64(hi)
	})
	reg.GaugeFunc("netsim_fabric_queued_bytes", func() int64 {
		var total units.ByteSize
		for _, p := range ports {
			total += p.QueuedBytes()
		}
		return int64(total)
	})
}

// DownToRPort returns the leaf egress port feeding host h — the "down-ToR"
// link where the paper locates the congestion bottleneck (Figure 1).
func (n *Network) DownToRPort(h *netsim.Host) *netsim.Port {
	return h.NIC().Peer()
}

// InterDCPorts returns both directions of every long-haul spine<->backbone
// link: the port set that, taken down together, blackholes all traffic
// between the two datacenters (fault injection's worst case).
func (n *Network) InterDCPorts() []*netsim.Port {
	var out []*netsim.Port
	for _, bb := range n.Backbones {
		for _, p := range bb.Ports() {
			out = append(out, p, p.Peer())
		}
	}
	return out
}
