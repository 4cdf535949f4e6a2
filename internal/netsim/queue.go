package netsim

import (
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

// QueueConfig parameterizes one egress queue. The §4.1 settings are exposed
// directly: byte capacity, RED-style ECN thresholds, and trimming support.
type QueueConfig struct {
	// Capacity bounds the data queue in bytes; <= 0 means unbounded
	// (used for host NICs, where the "queue" is host memory).
	Capacity units.ByteSize
	// MarkLow/MarkHigh are the ECN marking thresholds: below MarkLow no
	// packet is marked, above MarkHigh every packet is marked, and in
	// between the marking probability rises linearly (RED on the
	// instantaneous queue length, as DCTCP deployments configure).
	// MarkHigh == 0 disables marking.
	MarkLow, MarkHigh units.ByteSize
	// Trim enables NDP-style packet trimming: a data packet that would
	// overflow the data queue has its payload cut to ControlSize and is
	// enqueued in the priority queue instead of being dropped.
	Trim bool
}

// QueueStats counts what happened at one queue.
type QueueStats struct {
	Enqueued  uint64
	Dropped   uint64
	Trimmed   uint64
	Marked    uint64
	MaxBytes  units.ByteSize // high-watermark of data-queue occupancy
	BytesSeen units.ByteSize // total bytes accepted
}

// queue is a two-band (control + data) egress queue with ECN and trimming.
type queue struct {
	cfg   QueueConfig
	src   *rng.Source
	data  fifo
	prio  fifo
	Stats QueueStats

	// trace, when set, receives per-packet instant events (trim, drop,
	// mark) on the flow's track.
	trace *queueTracer
}

// queueTracer is a tracer with the label of the port it records for.
type queueTracer struct {
	*obs.Tracer
	label string
}

// pktList is a FIFO threaded through the packets' own next link: a packet
// waits in one place at a time (packet.go), so the list has no storage of its
// own to grow. tail is meaningful only while head is set.
type pktList struct {
	head, tail *Packet
	n          int
}

func (l *pktList) push(p *Packet, by holder) {
	p.hold(by)
	p.next = nil
	if l.head == nil {
		l.head = p
	} else {
		l.tail.next = p
	}
	l.tail = p
	l.n++
}

func (l *pktList) pop() *Packet {
	p := l.head
	if p != nil {
		l.head, p.next = p.next, nil
		p.hold(notHeld)
		l.n--
	}
	return p
}

// fifo is one band of an egress queue: the list and its occupancy in bytes.
type fifo struct {
	pktList
	bytes units.ByteSize
}

func (f *fifo) push(p *Packet) {
	f.pktList.push(p, inQueue)
	f.bytes += p.Size
}

func (f *fifo) pop() *Packet {
	p := f.pktList.pop()
	if p != nil {
		f.bytes -= p.Size
	}
	return p
}

// enqueue admits p at virtual time now, applying marking, trimming, or
// dropping. It reports whether the packet was accepted (possibly trimmed).
func (q *queue) enqueue(now units.Time, p *Packet) bool {
	if p.IsControl() {
		q.enqueuePrio(p)
		return true
	}
	if q.cfg.Capacity > 0 && q.data.bytes+p.Size > q.cfg.Capacity {
		// Overflow: trim or drop.
		if q.cfg.Trim {
			p.Trim()
			q.Stats.Trimmed++
			q.traceEvent(now, "trim", p)
			q.enqueuePrio(p)
			return true
		}
		q.Stats.Dropped++
		q.traceEvent(now, "drop", p)
		return false
	}
	q.maybeMark(now, p)
	q.data.push(p)
	q.Stats.Enqueued++
	q.Stats.BytesSeen += p.Size
	if q.data.bytes > q.Stats.MaxBytes {
		q.Stats.MaxBytes = q.data.bytes
	}
	return true
}

// enqueuePrio admits p to the control band, which is unbounded: control
// packets and trimmed headers are tiny.
func (q *queue) enqueuePrio(p *Packet) {
	q.prio.push(p)
	q.Stats.Enqueued++
	q.Stats.BytesSeen += p.Size
}

// traceEvent records one per-packet queue event on the flow's track.
func (q *queue) traceEvent(now units.Time, what string, p *Packet) {
	if q.trace != nil {
		q.trace.Instant(now, "queue", what, int64(p.Flow), obs.Arg{Key: "port", Val: q.trace.label})
	}
}

// maybeMark applies RED-style ECN marking based on the instantaneous data
// queue occupancy the packet observes on arrival.
func (q *queue) maybeMark(now units.Time, p *Packet) {
	if q.cfg.MarkHigh <= 0 {
		return
	}
	occ := q.data.bytes + p.Size
	switch {
	case occ <= q.cfg.MarkLow:
		return
	case occ >= q.cfg.MarkHigh:
		p.ECN = true
	default:
		span := float64(q.cfg.MarkHigh - q.cfg.MarkLow)
		prob := float64(occ-q.cfg.MarkLow) / span
		if q.src != nil && q.src.Float64() < prob {
			p.ECN = true
		} else if q.src == nil && prob >= 0.5 {
			p.ECN = true
		}
	}
	if p.ECN {
		q.Stats.Marked++
		q.traceEvent(now, "mark", p)
	}
}

// pop dequeues the next packet, strictly preferring the control band
// (trimmed headers and ACK/NACKs must not wait behind data).
func (q *queue) pop() *Packet {
	if p := q.prio.pop(); p != nil {
		return p
	}
	return q.data.pop()
}

// bytesQueued returns the current data-band occupancy.
func (q *queue) bytesQueued() units.ByteSize { return q.data.bytes }

// empty reports whether both bands are empty.
func (q *queue) empty() bool { return q.data.n == 0 && q.prio.n == 0 }
