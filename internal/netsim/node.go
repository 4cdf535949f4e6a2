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

// appendTo appends the name to b.
func (n Name) appendTo(b []byte) []byte {
	b = append(b, n.Prefix...)
	if n.Index < 0 {
		return b
	}
	return strconv.AppendInt(b, int64(n.Index), 10)
}

// Switch forwards packets by destination host: its Route, or when none was
// set its table, maps the destination to its ECMP next-hop set. With
// spraying enabled (the §4.1 configuration) it picks a uniformly random
// next-hop per packet; otherwise it hashes the flow ID so a flow sticks to
// one path.
type Switch struct {
	id       NodeID
	name     Name
	ports    []*Port
	route    Route
	fib      map[NodeID][]*Port // AddRoute's table
	sprayKey uint64
	spray    bool
	routeSet bool   // SetRoute installed route, so the table is not read
	Misses   uint64 // packets with no next hop (dropped)
}

// Block is the node IDs [Base, Base+Span).
type Block struct {
	Base NodeID
	Span uint32
}

// has reports whether dst is in b: one unsigned compare of dst's offset.
func (b Block) has(dst NodeID) bool { return uint32(dst-b.Base) < b.Span }

// Route is a switch's forwarding rule over a fabric whose hosts are numbered
// in consecutive blocks. A destination in Below leaves by the down-port
// Down[(dst-Below.Base)/Div]; one in either of the Above blocks leaves by
// every port of Up, the set spraying indexes into; any other has no next
// hop. The zero Route has no next hop for anything. A set it returns is a
// capped one-port window of Down, or Up itself, which the caller caps too: a
// caller appending to a set must not overwrite the port after it.
type Route struct {
	Below Block
	Div   uint32 // IDs of Below per down-port
	Down  []*Port
	Above [2]Block
	Up    []*Port
}

// next returns dst's next-hop set under r, nil for none.
func (r *Route) next(dst NodeID) []*Port {
	if i := uint32(dst - r.Below.Base); i < r.Below.Span {
		i /= r.Div
		return r.Down[i : i+1 : i+1]
	}
	if r.Above[0].has(dst) || r.Above[1].has(dst) {
		return r.Up
	}
	return nil
}

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
	*s = Switch{id: id, name: name, ports: ports, sprayKey: key, spray: spray}
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name.String() }

func (s *Switch) attachPort(p *Port) { s.ports = append(s.ports, p) }

// Ports returns the switch's attached ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// SetRoute makes r the switch's route in place of its table, for good: a
// table made before or after is not read.
func (s *Switch) SetRoute(r Route) { s.route, s.routeSet = r, true }

// AddRoute appends ports to the ECMP next-hop set for destination host dst
// in the switch's table, which serves unless SetRoute gave the switch a
// Route.
func (s *Switch) AddRoute(dst NodeID, ports ...*Port) {
	if s.fib == nil {
		s.fib = make(map[NodeID][]*Port)
	}
	s.fib[dst] = append(s.fib[dst], ports...)
}

// Routes returns the ECMP set for dst (nil if none).
func (s *Switch) Routes(dst NodeID) []*Port {
	if s.routeSet {
		return s.route.next(dst)
	}
	return s.fib[dst]
}

// Receive implements Node: look the destination up and forward.
func (s *Switch) Receive(e *sim.Engine, p *Packet, _ *Port) {
	p.checkLive("Switch.Receive")
	p.Hops++
	if p.Hops > maxHops {
		panic(fmt.Sprintf("netsim: routing loop: %v at %s", p, s.name))
	}
	next := s.Routes(p.Dst)
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
// per-flow endpoints; a packet of a flow with none counts in Unclaimed.
type Host struct {
	id   NodeID
	down bool
	name Name
	nic  *Port
	// The first endpoint bound lives in the host (firstEp, for firstFlow),
	// so a sender's host, which binds one flow, allocates nothing to bind
	// it and its Receive is a compare. The flows after it, firstFlow+1,
	// firstFlow+2, …, bound in that order, are the run, indexed by
	// f-firstFlow-1 in an array Expect sizes: an incast's ascending IDs at
	// its receiver and proxy host. The map holds every other flow. Receive
	// looks in that order, so a flow the run reaches is looked for nowhere
	// else.
	firstFlow FlowID
	firstEp   Endpoint
	run       []Endpoint
	endpoints map[FlowID]Endpoint
	// Unclaimed counts packets that matched no endpoint.
	Unclaimed uint64
	// DroppedDown counts packets discarded (in either direction) while the
	// host was crashed.
	DroppedDown uint64
	pktSeq      uint64
	// pool is the free list NewPacket takes from and Release gives back to,
	// shared by every host of the fabric.
	pool *PacketPool
}

// PacketPool is the free list of a fabric's packets: a stack of released
// packets through Packet.next, so the newest release is reused first, and
// the count of packets it has issued. Every host of a fabric shares one, so a
// packet released at a receiver is the next one a sender takes. One engine
// runs a fabric and NewPacket and Release are called from its events, so no
// lock is needed and reuse order is deterministic (which sync.Pool's is not).
type PacketPool struct {
	free   *Packet
	issued uint64
}

// reserveChunk is the most packets Reserve allocates at a time: 4,096
// packets are 360,448 B, exactly 44 pages, and a large object carries no
// malloc header, so the chunk wastes nothing. The cap keeps peak RSS flat: a
// reservation made as one object of megabytes overshoots the heap's GC goal
// by all of it while the previous run's packets are not yet swept.
const reserveChunk = 4096

// Reserve puts n fresh packets on the free list, allocated reserveChunk at a
// time, for a caller that knows how many packets will be live at once. It
// does not count them as issued, so NewPacket takes them exactly as it takes
// released ones, and a pool that runs past them grows as one without a
// reservation does.
func (pool *PacketPool) Reserve(n int) {
	for ; n > 0; n -= reserveChunk {
		pool.grow(min(reserveChunk, n))
	}
}

// grow pushes n fresh packets, allocated as one array, onto the free list.
func (pool *PacketPool) grow(n int) {
	chunk := make([]Packet, n)
	for i := range chunk {
		chunk[i].next, pool.free = pool.free, &chunk[i]
	}
}

// NewHost returns a host. Packet IDs are allocated per host — the host ID
// in the top 32 bits, a local counter below — so IDs stay unique
// fabric-wide without any cross-host shared counter. (A shared counter
// would make a packet's ID, which drives spraying and same-instant delivery
// order, depend on what every other host had sent; a package-level one
// would also be a data race between runs on parallel goroutines.) The host
// has a packet pool of its own.
func NewHost(id NodeID, name string) *Host {
	h := new(Host)
	h.Init(id, Literal(name), new(PacketPool))
	return h
}

// Init makes the zero Host h a host like NewHost's, in place, for a caller
// that holds its hosts in one array; its packets come from and go back to
// pool, which the fabric's other hosts may share.
func (h *Host) Init(id NodeID, name Name, pool *PacketPool) {
	*h = Host{id: id, name: name, pool: pool}
}

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

// Bind registers ep, which must not be nil, as the endpoint handling
// packets of flow f at this host, replacing the flow's earlier binding if it
// has one.
func (h *Host) Bind(f FlowID, ep Endpoint) {
	i := uint64(f - h.firstFlow - 1) // f's index in the run; huge below it
	switch {
	case h.firstEp == nil || f == h.firstFlow:
		h.firstFlow, h.firstEp = f, ep
	case i < uint64(len(h.run)):
		h.run[i] = ep
	case i == uint64(len(h.run)) && len(h.run) < cap(h.run):
		h.run = append(h.run, ep) // shadows any binding f had in the map
	default:
		if h.endpoints == nil {
			h.endpoints = make(map[FlowID]Endpoint)
		}
		h.endpoints[f] = ep
	}
}

// Expect makes room in the run for n flows about to be bound in ascending
// order from the host's first, so that binding them allocates once, not
// step by step. It does nothing once a second flow is bound.
func (h *Host) Expect(n int) {
	if h.run == nil && h.endpoints == nil {
		h.run = make([]Endpoint, 0, n)
	}
}

// SetDown crashes (true) or restarts (false) the host. While down the host
// neither receives nor transmits: arriving packets vanish and Send becomes a
// no-op — the failure primitive behind proxy-crash injection. Flow bindings
// survive a restart (endpoint state is the caller's to reset if the modelled
// failure loses it).
func (h *Host) SetDown(down bool) { h.down = down }

// Down reports whether the host is crashed.
func (h *Host) Down() bool { return h.down }

// packetChunk is the most packets a pool allocates at a time when its free
// list is empty: 372 packets are 32,736 B, which with the 8 B header the
// runtime puts on a pointer-holding object over 512 B fills the 32 KiB size
// class; a 373rd would make it a large object charged 40,960 B. A chunk is
// never larger than the number of packets the pool has issued, so a
// standalone host that sends a handful holds a handful. A pool whose peak is
// known is sized by Reserve instead, and grows by this only past it.
const packetChunk = 372

// NewPacket returns a zeroed packet originating at this host with a unique ID
// (host ID in the top 32 bits, per-host counter below), reusing a released
// packet when the pool has one. IDs do not depend on reuse: they drive
// spraying and same-instant delivery order.
func (h *Host) NewPacket() *Packet {
	h.pktSeq++
	pool := h.pool
	pool.issued++
	if pool.free == nil {
		pool.grow(int(min(packetChunk, pool.issued)))
	}
	p := pool.free
	pool.free = p.next
	*p = Packet{ID: uint64(uint32(h.id))<<32 | h.pktSeq&0xffffffff, Src: h.id, pooled: true, gen: p.gen}
	return p
}

// Release hands a packet this host's endpoint has finished with back to the
// pool for reuse; the caller must not touch it afterwards. Only the endpoint
// that consumes a packet releases it — forwarders pass ownership on with Send.
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
	p.next, h.pool.free = h.pool.free, p
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
	if ep := h.endpoint(p.Flow); ep != nil {
		ep.Handle(e, p)
		return
	}
	h.Unclaimed++
}

// endpoint returns the endpoint bound to f, or nil if none is.
func (h *Host) endpoint(f FlowID) Endpoint {
	if f == h.firstFlow {
		return h.firstEp
	}
	if i := uint64(f - h.firstFlow - 1); i < uint64(len(h.run)) {
		return h.run[i]
	}
	return h.endpoints[f]
}
