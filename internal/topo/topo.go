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
	"strconv"

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
	// configures backbone-router egress queues. Host NIC egress is
	// unbounded and unmarked: its queue is host memory.
	TorQueue, BackboneQueue netsim.QueueConfig

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
		Spray: true,
		Seed:  1,
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

// Network is a built fabric attached to a simulation engine: one array of
// ports, one of hosts and one of switches, which the exported lists point
// into. Everything Build made (the arrays, the port lists, the route
// functions) is read-only afterwards; what changes during a run is the state
// inside each port, host and switch, touched only by the network's engine.
type Network struct {
	Cfg    Config
	Engine *sim.Engine

	// Hosts[dc][leaf*ServersPerLeaf+i] is a server in datacenter dc.
	Hosts     [2][]*netsim.Host
	Leaves    [2][]*netsim.Switch
	Spines    [2][]*netsim.Switch
	Backbones []*netsim.Switch

	// ports is every port of the fabric, both ends of a link adjacent, in
	// the order Build connected them.
	ports []netsim.Port
	// pool is the free list every host's packets come from and go back to.
	pool netsim.PacketPool
}

// Build constructs the two-DC fabric. It panics on invalid configuration
// (construction errors are programmer errors, not runtime conditions).
//
// The fabric's size is known before anything is made, so its nodes and ports
// are carved out of a handful of arrays and initialised in place (the node
// IDs, the order src is drawn from and the order ports attach are those of
// building it one NewSwitch, NewHost and Connect at a time), and a node's
// name is its role's prefix and its index, formatted when asked for.
func Build(e *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hostsPerDC := cfg.Leaves * cfg.ServersPerLeaf
	spineUp := 0 // a spine's backbone links
	if cfg.Backbones > 0 {
		spineUp = cfg.BackbonesPerSpine
	}
	links := 2*(hostsPerDC+cfg.Leaves*cfg.Spines) + 2*cfg.Backbones
	n := &Network{Cfg: cfg, Engine: e, ports: make([]netsim.Port, 2*links)}
	hosts := make([]netsim.Host, 2*hostsPerDC)
	switches := make([]netsim.Switch, 2*(cfg.Leaves+cfg.Spines)+cfg.Backbones)
	hostList := make([]*netsim.Host, 0, len(hosts))
	switchList := make([]*netsim.Switch, 0, len(switches))
	portLists := make([]*netsim.Port, 0, len(n.ports)-len(hosts)) // every switch's port list, end to end

	src := rng.New(cfg.Seed)
	var lastID netsim.NodeID
	nextSwitch := func(name netsim.Name, label int64, degree int) *netsim.Switch {
		lastID++
		sw := &switches[len(switchList)]
		switchList = append(switchList, sw)
		key := src.Child(label)
		sw.Init(lastID, name, &key, cfg.Spray, portLists[len(portLists):len(portLists):len(portLists)+degree])
		portLists = portLists[:len(portLists)+degree]
		return sw
	}
	nextPort := 0
	connect := func(a, b netsim.Node, delay units.Duration, qa, qb netsim.QueueConfig) {
		netsim.Link(&n.ports[nextPort], &n.ports[nextPort+1], a, b, cfg.LinkRate, delay, qa, qb, src)
		nextPort += 2
	}

	for dc := 0; dc < 2; dc++ {
		tor := cfg.TorQueue
		tor.Trim = cfg.TrimDC[dc]
		inDC := "dc" + strconv.Itoa(dc) + "/"
		leaf, spine, host := inDC+"leaf", inDC+"spine", inDC+"h"
		first := len(switchList)
		for l := 0; l < cfg.Leaves; l++ {
			nextSwitch(netsim.Name{Prefix: leaf, Index: int32(l)}, int64(dc*1000+l), cfg.ServersPerLeaf+cfg.Spines)
		}
		for s := 0; s < cfg.Spines; s++ {
			nextSwitch(netsim.Name{Prefix: spine, Index: int32(s)}, int64(dc*1000+100+s), cfg.Leaves+spineUp)
		}
		n.Leaves[dc] = switchList[first : first+cfg.Leaves : first+cfg.Leaves]
		n.Spines[dc] = switchList[first+cfg.Leaves : len(switchList) : len(switchList)]
		for l := 0; l < cfg.Leaves; l++ {
			for i := 0; i < cfg.ServersPerLeaf; i++ {
				lastID++
				h := &hosts[len(hostList)]
				hostList = append(hostList, h)
				h.Init(lastID, netsim.Name{Prefix: host, Index: int32(l*cfg.ServersPerLeaf + i)}, &n.pool)
				// Host <-> leaf: leaf egress uses the ToR queue
				// (with this DC's trim setting); host egress is
				// the NIC queue.
				connect(h, n.Leaves[dc][l], cfg.IntraDelay, netsim.QueueConfig{}, tor)
			}
		}
		n.Hosts[dc] = hostList[dc*hostsPerDC : len(hostList) : len(hostList)]
		// Full leaf<->spine bipartite mesh.
		for l := 0; l < cfg.Leaves; l++ {
			for s := 0; s < cfg.Spines; s++ {
				connect(n.Leaves[dc][l], n.Spines[dc][s], cfg.IntraDelay, tor, tor)
			}
		}
	}

	// Backbone routers: backbone b connects spine b/BackbonesPerSpine in
	// each DC over the long-haul links.
	for b := 0; b < cfg.Backbones; b++ {
		bb := nextSwitch(netsim.Name{Prefix: "bb", Index: int32(b)}, int64(5000+b), 2)
		s := b / cfg.BackbonesPerSpine
		for dc := 0; dc < 2; dc++ {
			tor := cfg.TorQueue
			tor.Trim = cfg.TrimDC[dc]
			connect(n.Spines[dc][s], bb, cfg.InterDelay, tor, cfg.BackboneQueue)
		}
	}
	n.Backbones = switchList[len(switchList)-cfg.Backbones:]

	n.installRoutes()
	return n
}

// Host returns server idx under leaf in datacenter dc.
func (n *Network) Host(dc, leaf, idx int) *netsim.Host {
	return n.Hosts[dc][leaf*n.Cfg.ServersPerLeaf+idx]
}

// ReservePackets puts k fresh packets on the free list every host's packets
// come from (netsim.PacketPool.Reserve), for a caller that knows how many
// will be live at once.
func (n *Network) ReservePackets(k int) { n.pool.Reserve(k) }

// installRoutes gives every switch its shortest-path ECMP next hops as a
// netsim.Route over the destination's ID; nothing is stored per destination.
// A switch at depth d — backbone 0, spine 1, leaf 2 — is above the hosts whose
// first d coordinates (dc, leaf, index) are its own: toward those its next hop
// is the down-port numbered by coordinate d, toward any other host all of its
// up-ports, and nothing for an ID that is not a host's or, with no backbones,
// a host's in the other DC. Ports are attached down-ports first (backbone:
// DC0, DC1; spine: leaves, then backbones; leaf: hosts, then spines) and each
// set is a capped sub-slice in that order, because spraying indexes into it.
//
// Build numbers a DC's hosts consecutively, leaf-major (locate), so the hosts
// under a switch are one block of IDs and coordinate d is the offset into it
// divided by the hosts per down-port: a leaf's are one host each, a spine's a
// leaf's worth. A backbone is above DC0's hosts, with one down-port, and
// reaches DC1's through its "up" port to DC1.
func (n *Network) installRoutes() {
	c := &n.Cfg
	perLeaf := uint32(c.ServersPerLeaf)
	perDC := uint32(c.Leaves) * perLeaf
	hostsOf := [2]netsim.Block{{Base: n.Hosts[0][0].ID(), Span: perDC}, {Base: n.Hosts[1][0].ID(), Span: perDC}}
	for dc := 0; dc < 2; dc++ {
		here, there := hostsOf[dc], hostsOf[1-dc]
		if c.Backbones == 0 {
			there = netsim.Block{}
		}
		for l, sw := range n.Leaves[dc] {
			ports := sw.Ports()
			sw.SetRoute(netsim.Route{
				Below: netsim.Block{Base: here.Base + netsim.NodeID(uint32(l)*perLeaf), Span: perLeaf},
				Div:   1, Down: ports[:perLeaf:perLeaf],
				Above: [2]netsim.Block{here, there}, Up: ports[perLeaf:len(ports):len(ports)],
			})
		}
		for _, sw := range n.Spines[dc] {
			ports := sw.Ports()
			sw.SetRoute(netsim.Route{
				Below: here, Div: perLeaf, Down: ports[:c.Leaves:c.Leaves],
				Above: [2]netsim.Block{there}, Up: ports[c.Leaves:len(ports):len(ports)],
			})
		}
	}
	for _, bb := range n.Backbones {
		ports := bb.Ports()
		bb.SetRoute(netsim.Route{
			Below: hostsOf[0], Div: perDC, Down: ports[0:1:1],
			Above: [2]netsim.Block{hostsOf[1]}, Up: ports[1:2:2],
		})
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
	at[1] = int(uint32(h) / uint32(c.ServersPerLeaf))
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
// link): switch egress ports and host NICs, in the order Build connected
// them.
func (n *Network) AllPorts() []*netsim.Port {
	out := make([]*netsim.Port, len(n.ports))
	for i := range n.ports {
		out[i] = &n.ports[i]
	}
	return out
}

// SetTracer attaches (or with nil, detaches) an event tracer to every port
// queue in the fabric: trims, drops and marks become instants on the
// affected flow's track.
func (n *Network) SetTracer(t *obs.Tracer) {
	for i := range n.ports {
		n.ports[i].SetTracer(t)
	}
}

// Instrument exports fabric-wide aggregate queue counters to the registry
// through one collector (netsim_fabric_*). Per-port series would be 18k
// metrics on the paper's full fabric; experiments that need one port's detail
// call Port.Instrument on just that port. A snapshot walks the ports once, for
// all six.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(func(c *obs.Collector) {
		var total netsim.QueueStats // MaxBytes: the highest of any port
		var queued units.ByteSize
		for i := range n.ports {
			p := &n.ports[i]
			st := p.Stats()
			total.Enqueued += st.Enqueued
			total.Dropped += st.Dropped
			total.Trimmed += st.Trimmed
			total.Marked += st.Marked
			total.MaxBytes = max(total.MaxBytes, st.MaxBytes)
			queued += p.QueuedBytes()
		}
		c.Counter("netsim_fabric_enqueued_total", total.Enqueued)
		c.Counter("netsim_fabric_dropped_total", total.Dropped)
		c.Counter("netsim_fabric_trimmed_total", total.Trimmed)
		c.Counter("netsim_fabric_marked_total", total.Marked)
		c.Gauge("netsim_fabric_max_queue_bytes", int64(total.MaxBytes))
		c.Gauge("netsim_fabric_queued_bytes", int64(queued))
	})
}

// DownToRPort returns the leaf egress port feeding host h — the "down-ToR"
// link where the paper locates the congestion bottleneck (Figure 1).
func (n *Network) DownToRPort(h *netsim.Host) *netsim.Port {
	return h.NIC().Peer()
}
