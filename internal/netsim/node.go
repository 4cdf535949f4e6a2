package netsim

import (
	"fmt"
	"strconv"

	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
)

// maxHops guards against routing loops; no sane path in the two-DC fabric
// exceeds it.
const maxHops = 64

// Name is a node's name, put together when it is asked for: a fabric of 8k
// hosts then holds one prefix per role ("dc0/h") and no string per node. It
// reads Prefix followed by Index ("dc0/h17"), or Prefix alone when Index is
// negative (Literal).
type Name struct {
	Prefix string
	Index  int32
}

// Literal is the name s as given.
func Literal(s string) Name { return Name{Prefix: s, Index: -1} }

func (n Name) String() string {
	if n.Index < 0 {
		return n.Prefix
	}
	return n.Prefix + strconv.Itoa(int(n.Index))
}

// Switch forwards packets by destination host: one route function maps the
// destination to its ECMP next-hop set. With spraying enabled (the §4.1
// configuration) it picks a uniformly random next-hop per packet; otherwise
// it hashes the flow ID so a flow sticks to one path.
type Switch struct {
	id       NodeID
	name     Name
	ports    []*Port
	route    func(dst NodeID) []*Port
	fib      map[NodeID][]*Port // AddRoute's table
	sprayKey uint64
	spray    bool
	routeSet bool   // SetRoute installed route, so AddRoute leaves it be
	Misses   uint64 // packets with no next hop (dropped)
}

// noRoute is the route of a switch nobody gave one.
func noRoute(NodeID) []*Port { return nil }

// NewSwitch returns a switch with the given identity and no routes. src
// seeds the per-switch spraying key; spray selects per-packet (true) or
// per-flow (false) ECMP. Per-packet spray choices are a hash of (switch key,
// packet ID, hop count) rather than draws from a sequential stream, so a
// spray decision depends only on the packet — never on the order simultaneous
// packets happened to traverse the switch — while staying uniform and seeded.
func NewSwitch(id NodeID, name string, src *rng.Source, spray bool) *Switch {
	s := new(Switch)
	s.Init(id, Literal(name), src, spray, nil)
	return s
}

// Init makes the zero Switch s the switch NewSwitch returns, in place, for a
// caller that holds its switches in one array. ports, when non-nil, is the
// empty slice the port list grows in as links attach: a fabric that knows a
// switch's degree passes it that capacity.
func (s *Switch) Init(id NodeID, name Name, src *rng.Source, spray bool, ports []*Port) {
	var key uint64
	if src != nil {
		key = uint64(src.Int63())
	}
	*s = Switch{id: id, name: name, ports: ports, route: noRoute, sprayKey: key, spray: spray}
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name.String() }

func (s *Switch) attachPort(p *Port) { s.ports = append(s.ports, p) }

// Ports returns the switch's attached ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// SetRoute replaces the table lookup with fn: a destination's ECMP next-hop
// set in the order spraying indexes it, nil for none. Receive calls it per
// packet, so fn reads only state fixed at build time and allocates nothing.
func (s *Switch) SetRoute(fn func(dst NodeID) []*Port) { s.route, s.routeSet = fn, true }

// AddRoute appends ports to the ECMP next-hop set for destination host dst
// in the switch's table. The first call makes the table and, unless SetRoute
// replaced it, installs the lookup in it as the route.
func (s *Switch) AddRoute(dst NodeID, ports ...*Port) {
	if s.fib == nil {
		s.fib = make(map[NodeID][]*Port)
		if !s.routeSet {
			s.route = func(dst NodeID) []*Port { return s.fib[dst] }
		}
	}
	s.fib[dst] = append(s.fib[dst], ports...)
}

// Routes returns the ECMP set for dst (nil if none).
func (s *Switch) Routes(dst NodeID) []*Port { return s.route(dst) }

// Receive implements Node: ask the route function and forward.
func (s *Switch) Receive(e *sim.Engine, p *Packet, _ *Port) {
	p.checkLive("Switch.Receive")
	p.Hops++
	if p.Hops > maxHops {
		panic(fmt.Sprintf("netsim: routing loop: %v at %s", p, s.name))
	}
	next := s.route(p.Dst)
	if len(next) == 0 {
		s.Misses++
		return
	}
	var out *Port
	switch {
	case len(next) == 1:
		out = next[0]
	case s.spray:
		out = next[mix64(s.sprayKey^uint64(p.ID)+uint64(p.Hops)*0x9e3779b97f4a7c15)%uint64(len(next))]
	default:
		out = next[flowHash(p.Flow)%uint64(len(next))]
	}
	out.Send(e, p)
}

// flowHash is a fixed 64-bit mix (splitmix64 finalizer) for per-flow ECMP.
func flowHash(f FlowID) uint64 {
	return mix64(uint64(f) + 0x9e3779b97f4a7c15)
}

// mix64 is the SplitMix64 avalanche finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeliveryKey is the same-instant tie-break rank a link delivery carries
// (sim.Engine.ScheduleHandler): a mix of the packet ID. The mix matters
// twice: it is a bijection, so distinct packets never collide (a collision
// would fall back to scheduling order, which a pipe's one event per link
// does not share with an event per packet), and it is never zero for real
// IDs, so deliveries always rank as keyed events — arriving before any
// same-instant plain event such as a retransmission timer. Raw IDs would
// also rank same-instant arrivals by (host, send order), a systematic bias
// the mix destroys.
func DeliveryKey(p *Packet) uint64 { return mix64(p.ID) }

// Endpoint consumes packets delivered to a host for one flow. Transport
// senders/receivers and proxy relays all implement Endpoint.
type Endpoint interface {
	Handle(e *sim.Engine, p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(e *sim.Engine, p *Packet)

// Handle implements Endpoint.
func (f EndpointFunc) Handle(e *sim.Engine, p *Packet) { f(e, p) }

// Host is a server with a single NIC. Arriving packets are demultiplexed to
// per-flow endpoints; a default endpoint receives unclaimed packets.
type Host struct {
	id   NodeID
	name Name
	nic  *Port
	// The first endpoint bound lives in the host (firstEp, for firstFlow) and
	// only a second makes the map: a sender's host binds one flow, so wiring
	// it allocates nothing and its Receive is a compare.
	firstFlow FlowID
	firstEp   Endpoint
	endpoints map[FlowID]Endpoint
	catchAll  Endpoint
	down      bool
	// Unclaimed counts packets that matched no endpoint.
	Unclaimed uint64
	// DroppedDown counts packets discarded (in either direction) while the
	// host was crashed.
	DroppedDown uint64
	pktSeq      uint64
	// free is the stack of released packets NewPacket reuses (Packet.next).
	// It is the host's own: NewPacket and Release are called from events on
	// the host's engine, so no lock is needed and reuse order is
	// deterministic (which sync.Pool's is not).
	free *Packet
}

// NewHost returns a host. Packet IDs are allocated per host — the host ID
// in the top 32 bits, a local counter below — so IDs stay unique
// fabric-wide without any cross-host shared counter. (A shared counter
// would make a packet's ID, which drives spraying and same-instant delivery
// order, depend on what every other host had sent; a package-level one
// would also be a data race between runs on parallel goroutines.)
func NewHost(id NodeID, name string) *Host {
	h := new(Host)
	h.Init(id, Literal(name))
	return h
}

// Init makes the zero Host h the host NewHost returns, in place, for a caller
// that holds its hosts in one array.
func (h *Host) Init(id NodeID, name Name) { *h = Host{id: id, name: name} }

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name.String() }

func (h *Host) attachPort(p *Port) {
	if h.nic != nil {
		panic("netsim: host " + h.Name() + " already has a NIC")
	}
	h.nic = p
}

// NIC returns the host's single port.
func (h *Host) NIC() *Port { return h.nic }

// Bind registers the endpoint handling packets of flow f at this host,
// replacing the flow's earlier binding if it has one.
func (h *Host) Bind(f FlowID, ep Endpoint) {
	if _, mapped := h.endpoints[f]; !mapped && (h.firstEp == nil || h.firstFlow == f) {
		h.firstFlow, h.firstEp = f, ep
		return
	}
	if h.endpoints == nil {
		h.endpoints = make(map[FlowID]Endpoint)
	}
	h.endpoints[f] = ep
}

// Unbind removes a flow binding.
func (h *Host) Unbind(f FlowID) {
	if h.firstEp != nil && h.firstFlow == f {
		h.firstEp = nil
		return
	}
	delete(h.endpoints, f)
}

// SetCatchAll installs an endpoint for packets with no flow binding.
func (h *Host) SetCatchAll(ep Endpoint) { h.catchAll = ep }

// SetDown crashes (true) or restarts (false) the host. While down the host
// neither receives nor transmits: arriving packets vanish and Send becomes a
// no-op — the failure primitive behind proxy-crash injection. Flow bindings
// survive a restart (endpoint state is the caller's to reset if the modelled
// failure loses it).
func (h *Host) SetDown(down bool) { h.down = down }

// Down reports whether the host is crashed.
func (h *Host) Down() bool { return h.down }

// packetChunk is the most packets a host allocates at a time when its free
// list is empty: enough to take the allocator off the per-packet path. A
// chunk is never larger than the number of packets the host has issued, so
// one that sends a handful (4000 of them in a fan-in epoch) holds a handful.
const packetChunk = 16

// NewPacket returns a zeroed packet originating at this host with a unique ID
// (host ID in the top 32 bits, per-host counter below), reusing a released
// packet when the host has one. IDs do not depend on reuse: they drive
// spraying and same-instant delivery order.
func (h *Host) NewPacket() *Packet {
	h.pktSeq++
	if h.free == nil {
		chunk := make([]Packet, min(packetChunk, h.pktSeq))
		for i := range chunk {
			chunk[i].next, h.free = h.free, &chunk[i]
		}
	}
	p := h.free
	h.free = p.next
	*p = Packet{ID: uint64(uint32(h.id))<<32 | h.pktSeq&0xffffffff, Src: h.id, pooled: true, gen: p.gen}
	return p
}

// Release hands a packet this host's endpoint has finished with back for
// reuse; the caller must not touch it afterwards. Only the endpoint that
// consumes a packet releases it — forwarders pass ownership on with Send.
// Not releasing is always safe (the garbage collector takes the packet), so
// packets that die in the fabric are simply dropped; and a packet that did
// not come from NewPacket, or was already released, is ignored.
func (h *Host) Release(p *Packet) {
	p.checkLive("Host.Release")
	if !p.pooled {
		return
	}
	p.hold(onFreeList)
	p.pooled = false
	if debugPool {
		p.poison() // before linking: it zeroes the link
	}
	p.next, h.free = h.free, p
}

// Send transmits pkt out of the host NIC.
func (h *Host) Send(e *sim.Engine, pkt *Packet) {
	if h.down {
		h.DroppedDown++
		return
	}
	h.nic.Send(e, pkt)
}

// Receive implements Node: demultiplex to the flow's endpoint.
func (h *Host) Receive(e *sim.Engine, p *Packet, _ *Port) {
	p.checkLive("Host.Receive")
	if h.down {
		h.DroppedDown++
		return
	}
	if h.firstEp != nil && h.firstFlow == p.Flow {
		h.firstEp.Handle(e, p)
		return
	}
	if h.endpoints != nil {
		if ep, ok := h.endpoints[p.Flow]; ok {
			ep.Handle(e, p)
			return
		}
	}
	if h.catchAll != nil {
		h.catchAll.Handle(e, p)
		return
	}
	h.Unclaimed++
}
