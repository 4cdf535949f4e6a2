// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package netsim implements the packet-level network simulator: packets,
// byte-accurate output queues with RED-style ECN marking and NDP-style
// packet trimming, store-and-forward ports joined by propagation-delay
// links, switches with ECMP packet spraying, and hosts that demultiplex
// packets to transport endpoints.
//
// The design mirrors htsim, the simulator the paper's §4 evaluation uses:
// every link is modelled as an egress queue plus a (serialization +
// propagation) delay, and every forwarding decision is an event on the
// shared discrete-event engine.
package netsim

import (
	"fmt"

	"incastproxy/internal/units"
)

// Kind discriminates simulated packet types.
type Kind uint8

// Packet kinds.
const (
	// Data carries flow payload.
	Data Kind = iota
	// Ack acknowledges a single data packet (per-packet ACK protocol,
	// reorder-tolerant under packet spraying).
	Ack
	// Nack signals that a specific data packet was trimmed/lost and
	// should be retransmitted immediately. Nacks are what the
	// streamlined proxy emits on behalf of the remote receiver.
	Nack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// FlowID identifies one transport flow end to end (including through a
// proxy, which preserves the flow ID when relaying).
type FlowID uint64

// NodeID identifies a node (host, switch, or router) in the fabric.
type NodeID int32

// ControlSize is the on-wire size of ACK/NACK packets and of trimmed data
// headers (NDP uses 64 B headers).
const ControlSize units.ByteSize = 64

// Packet is a simulated packet, passed by pointer and owned by exactly one
// queue, pipe or endpoint at a time (so the lists packets wait on run through
// them: next); the endpoint that consumes one hands it back with Host.Release.
type Packet struct {
	ID   uint64 // unique per simulation run
	Flow FlowID
	Kind Kind

	// pooled marks a packet handed out by Host.NewPacket and not yet
	// released: only those are recycled. A literal &Packet{} never is, so
	// callers that reuse one across sends keep working.
	pooled bool
	// held and gen are the simdebug checks (debugPool): the list the packet is
	// linked on (the free list: released, dead) and the count of its releases.
	held holder
	// Hops counts switch traversals as a routing-loop guard (at most maxHops).
	Hops uint8
	gen  uint32

	// Seq is the data packet index within the flow; for Ack/Nack it is
	// the sequence being acknowledged or nacked.
	Seq int64

	// Size is the current wire size, reduced to ControlSize if trimmed.
	Size units.ByteSize
	// FullSize is the original wire size before any trimming.
	FullSize units.ByteSize

	// Trimmed marks a data packet whose payload was cut by a switch.
	Trimmed bool
	// ECN is the congestion-experienced codepoint, set by marking queues.
	ECN bool
	// EchoECN, on an Ack, echoes the acknowledged data packet's ECN bit.
	EchoECN bool
	// Retx marks retransmissions (RTT samples from them are discarded).
	Retx bool

	Src NodeID // originating host
	Dst NodeID // host this packet is currently routed to
	// FinalDst is the eventual receiver for packets routed via a
	// streamlined proxy (Dst is then the proxy). Zero when direct.
	FinalDst NodeID

	// SentAt is the transport-layer send timestamp, for RTT estimation.
	SentAt units.Time

	next *Packet    // links the queue band, pipe or free list the packet waits on
	at   units.Time // when it reaches the far end of the link it was last sent on
}

func (p *Packet) String() string {
	return fmt.Sprintf("%v flow=%d seq=%d size=%v src=%d dst=%d ecn=%v trim=%v",
		p.Kind, p.Flow, p.Seq, p.Size, p.Src, p.Dst, p.ECN, p.Trimmed)
}

// Trim cuts the payload, leaving only the header.
func (p *Packet) Trim() {
	p.Trimmed = true
	p.Size = ControlSize
}

// IsControl reports whether the packet must use the priority (control)
// queue: ACKs, NACKs, and trimmed headers.
func (p *Packet) IsControl() bool {
	return p.Kind != Data || p.Trimmed
}

// poison scrambles what a stale holder of a released packet would read, so
// that use after release is loud under -tags simdebug.
func (p *Packet) poison() {
	*p = Packet{Kind: ^Kind(0), Seq: -1, Hops: maxHops, held: onFreeList, gen: p.gen + 1}
}

// holder is the list a packet is linked on, tracked under -tags simdebug.
type holder uint8

const (
	notHeld holder = iota
	inQueue
	inPipe
	onFreeList
)

// hold records the list p is linked onto (notHeld: taken off) and panics when
// another still holds it, which would cut that list. Under -tags simdebug only:
// bench/ re-offers one literal to a port nobody drains, and it links to itself.
func (p *Packet) hold(by holder) {
	if !debugPool {
		return
	}
	if by != notHeld && p.held != notHeld {
		names := [...]string{"no list", "a queue band", "a pipe", "a free list"}
		panic(fmt.Sprintf("netsim: packet linked onto %s while on %s: %v", names[by], names[p.held], p))
	}
	p.held = by
}

// checkLive panics under -tags simdebug when p was released and not handed out
// again; without the tag debugPool is constant false and it compiles to nothing.
func (p *Packet) checkLive(where string) {
	if debugPool && p.held == onFreeList {
		panic(fmt.Sprintf("netsim: %s on a released packet (release #%d)", where, p.gen))
	}
}
