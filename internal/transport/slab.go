package transport

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/units"
)

// Slab makes the senders and receivers of one run, and their per-sequence
// arrays, out of a few shared arrays instead of a handful of heap objects per
// flow: the Sender, its state table, the Receiver and its bitset.
// A run counts the flows it is about to make with Expect, and Reserve makes
// one array of each kind holding exactly what those flows carve. A flow made
// past the reservation gets arrays exactly its own size, as a lone flow does:
// NewSender and NewReceiver are this code run on a zero Slab.
//
// Every array a flow gets is carved with a three-index slice: capped at the
// flow's own share, so a table or bitset that outgrows its carve is
// copied to an array of its own by append instead of writing into the next
// flow's.
//
// A Slab keeps every array alive while any flow carved from it is, so it
// belongs to one run; it is not safe for concurrent use.
type Slab struct {
	senders   pool[Sender]
	receivers pool[Receiver]
	pkts      pool[pktState]
	seen      pool[uint64]

	next slabCount // what Expect has counted since the last Reserve
}

// slabCount is a number of flows and the entries of their tables and bitsets.
type slabCount struct{ flows, pkts, seen int }

// pool hands out T's from one array at a time.
type pool[T any] struct{ free []T }

// take returns the next n T's, zeroed, as a slice whose capacity is n. A pool
// with fewer than n left makes an array of exactly n.
func (p *pool[T]) take(n int) []T {
	if len(p.free) < n {
		p.free = make([]T, n)
	}
	s := p.free[:n:n]
	p.free = p.free[n:]
	return s
}

// carve returns an empty slice with room for n T's and no more.
func (p *pool[T]) carve(n int) []T { return p.take(n)[:0] }

// sendPkts returns the packets of mss bytes a sender of total bytes carries,
// which is the length its state table is carved. It panics on a flow too
// long for the flight list's links.
func sendPkts(total, mss units.ByteSize) int64 {
	n := max(int64((total+mss-1)/mss), 0)
	if n > maxFlowPkts {
		panic(fmt.Sprintf("transport: a flow of %d packets, more than %d", n, maxFlowPkts))
	}
	return n
}

// FirstWindowPkts returns how many data packets Start puts on the wire for a
// sender of total bytes made with cfg: every packet of the flow when its
// bytes fit the initial window, otherwise as many full packets as the window
// holds, and at least one. It panics where sendPkts does.
func FirstWindowPkts(total units.ByteSize, cfg Config) int {
	cfg = cfg.withDefaults()
	n := sendPkts(total, cfg.MSS)
	if total <= cfg.InitWindow {
		return int(n)
	}
	return int(max(cfg.InitWindow/cfg.MSS, 1))
}

// seenWords returns the length of the bitset a receiver expecting the given
// bytes in packets of mss bytes is carved: a word per 64 packets.
func seenWords(expected, mss units.ByteSize) int {
	if expected <= 0 || mss <= 0 {
		return 0
	}
	return int(((expected+mss-1)/mss + 63) / 64)
}

// Expect counts one flow into the next Reserve: a sender that NewSender makes
// from total and cfg, and a receiver that NewReceiver makes from total and mss.
func (sl *Slab) Expect(total units.ByteSize, cfg Config, mss units.ByteSize) {
	cfg = cfg.withDefaults()
	sl.next.flows++
	sl.next.pkts += int(sendPkts(total, cfg.MSS))
	sl.next.seen += seenWords(total, mss)
}

// Reserve makes the slab's next arrays hold exactly the flows Expect has
// counted since the last Reserve. What was left of the previous arrays is
// dropped.
func (sl *Slab) Reserve() {
	n := sl.next
	sl.senders.free = make([]Sender, n.flows)
	sl.receivers.free = make([]Receiver, n.flows)
	sl.pkts.free = make([]pktState, n.pkts)
	sl.seen.free = make([]uint64, n.seen)
	sl.next = slabCount{}
}

// NewSender is the package's NewSender, made from the slab.
func (sl *Slab) NewSender(host *netsim.Host, flow netsim.FlowID, dst, finalDst netsim.NodeID,
	total units.ByteSize, cfg Config, onDone func(units.Time)) *Sender {
	cfg = cfg.withDefaults()
	s := &sl.senders.take(1)[0]
	*s = Sender{
		cfg:        cfg,
		host:       host,
		flow:       flow,
		dst:        dst,
		finalDst:   finalDst,
		totalBytes: total,
		numPkts:    sendPkts(total, cfg.MSS),
		limit:      total,
		cwnd:       float64(cfg.InitWindow),
		ssthresh:   float64(1 << 50),
		alpha:      1, // DCTCP convention: first mark halves the window
		rto:        cfg.InitRTO,
		onDone:     onDone,
	}
	s.pkts = sl.pkts.carve(int(s.numPkts))
	return s
}

// NewReceiver is the package's NewReceiver, made from the slab, for a flow
// whose data packets are at most mss bytes: its bitset is carved for the
// expected bytes in packets of that size, and grows past the carve if smaller
// packets come.
func (sl *Slab) NewReceiver(host *netsim.Host, flow netsim.FlowID, ackDst netsim.NodeID,
	expected, mss units.ByteSize, onDone func(units.Time)) *Receiver {
	r := &sl.receivers.take(1)[0]
	*r = Receiver{
		host:     host,
		flow:     flow,
		ackDst:   ackDst,
		expected: expected,
		onDone:   onDone,
	}
	r.received = sl.seen.carve(seenWords(expected, mss))
	return r
}
