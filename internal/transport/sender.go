package transport

import (
	"fmt"
	"math"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// SenderStats counts transport-level events for one flow.
type SenderStats struct {
	PktsSent     uint64
	Retransmits  uint64
	Timeouts     uint64
	Nacks        uint64
	MarkedAcks   uint64
	UnmarkedAcks uint64
	Decreases    uint64
	// SpuriousRTO counts timeouts detected as spurious (an original
	// transmission's ACK arrived just after the timer fired) and undone
	// F-RTO-style.
	SpuriousRTO uint64
}

// add adds o's counts to s's.
func (s *SenderStats) add(o *SenderStats) {
	s.PktsSent += o.PktsSent
	s.Retransmits += o.Retransmits
	s.Timeouts += o.Timeouts
	s.Nacks += o.Nacks
	s.MarkedAcks += o.MarkedAcks
	s.UnmarkedAcks += o.UnmarkedAcks
	s.Decreases += o.Decreases
	s.SpuriousRTO += o.SpuriousRTO
}

// pktState is everything the sender tracks about one data sequence. The
// states live by value in a table indexed by sequence number — sequences are
// dense from 0 — so the per-packet path does no map access and no
// allocation.
type pktState struct {
	sentAt units.Time // when the latest transmission left
	size   int32      // wire size, fixed at the first transmission
	// prev and next link the sequence into the sender's flight list while
	// it is outstanding, as seq+1: 0 is none, so a zeroed table is an
	// empty list.
	prev, next int32
	// outstanding: the latest transmission is still counted in flight
	// (not yet acked, nacked or flushed by a timeout).
	outstanding bool
	retx        bool // the latest transmission was a retransmission
	acked       bool
	lost        bool // declared lost and waiting in retxQ
}

// Sender is the DCTCP-like sending endpoint of one flow. It must be bound
// to its host with Host.Bind(flow, sender) before Start.
//
// A Sender either carries a fixed number of bytes (NewSender) or streams
// packets supplied incrementally (NewStreamingSender), which is how the
// naive proxy's upstream half feeds its downstream half.
type Sender struct {
	cfg  Config
	host *netsim.Host
	flow netsim.FlowID

	dst      netsim.NodeID // data packets are addressed here
	finalDst netsim.NodeID // eventual receiver when dst is a streamlined proxy

	// Fixed-size mode.
	totalBytes units.ByteSize
	numPkts    int64

	// Streaming mode (totalBytes < 0): sizes of supplied-but-unsent
	// packets, in order.
	streaming    bool
	supplyQ      queue[units.ByteSize]
	supplyBytes  units.ByteSize // sum of supplyQ, kept so SupplyBacklog is O(1)
	supplyClosed bool
	suppliedPkts int64

	nextSeq    int64
	pkts       []pktState // indexed by sequence; covers at least [0, nextSeq)
	ackedBytes units.ByteSize
	ackedPkts  int64
	retxQ      queue[int64]
	// flightHead and flightTail end the flight list threaded through pkts
	// (seq+1, 0 is none): every outstanding sequence once, in the order of
	// its latest transmission, so the head is the oldest still in flight.
	flightHead, flightTail int32

	cwnd     float64
	ssthresh float64
	inflight units.ByteSize
	sentNew  units.ByteSize

	alpha        float64
	winAcked     units.ByteSize
	winMarked    units.ByteSize
	alphaNext    units.Time
	lastDecrease units.Time
	// recoveryPoint is the time of the last window reduction; congestion
	// signals carried by packets sent before it are stale and ignored
	// (standard recovery-point semantics — without this, the marked ACKs
	// of a pre-timeout burst crush the freshly reset window).
	recoveryPoint units.Time

	srtt, rttvar units.Duration
	rto          units.Duration
	backoff      uint

	timer         sim.Timer // the retransmission timer: fires rtoFire
	lastTimeoutAt units.Time
	rtoUndone     bool
	started       bool
	frozen        bool
	aborted       bool
	done          bool
	doneAt        units.Time
	onDone        func(units.Time)
	Stats         SenderStats

	// Observability (see Attach): tel is the shared per-run sink, label
	// names this flow on trace tracks, eng lets engine-less entry points
	// (Abort) timestamp their events, startedAt anchors the FCT.
	tel       *Telemetry
	label     string
	eng       *sim.Engine
	startedAt units.Time
}

// maxFlowPkts is the most packets a flow carries: the flight list links
// sequence seq as seq+1 in an int32.
const maxFlowPkts = math.MaxInt32 - 1

// NewSender creates a fixed-size sender for total bytes addressed to dst.
// finalDst is non-zero only when dst is a streamlined proxy relaying to the
// eventual receiver. onDone (optional) fires when every byte is acked. A run
// that makes many senders makes them from one Slab.
func NewSender(host *netsim.Host, flow netsim.FlowID, dst, finalDst netsim.NodeID,
	total units.ByteSize, cfg Config, onDone func(units.Time)) *Sender {
	var sl Slab
	return sl.NewSender(host, flow, dst, finalDst, total, cfg, onDone)
}

// NewStreamingSender creates a sender whose packets are supplied one at a
// time with Supply; CloseSupply marks the end of the stream.
func NewStreamingSender(host *netsim.Host, flow netsim.FlowID, dst, finalDst netsim.NodeID,
	cfg Config, onDone func(units.Time)) *Sender {
	var sl Slab
	s := sl.sender(host, flow, dst, finalDst, cfg, onDone)
	s.streaming = true
	return s
}

// Attach wires the sender to a telemetry sink under the given flow label.
// Call before Start; a nil sink is valid and records nothing.
func (s *Sender) Attach(tel *Telemetry, label string) {
	s.tel = tel
	s.label = label
}

// Start begins transmission at the engine's current time.
func (s *Sender) Start(e *sim.Engine) {
	if s.started {
		return
	}
	s.started = true
	s.eng = e
	s.startedAt = e.Now()
	s.timer.Init(e, (*rtoFire)(s))
	s.alphaNext = e.Now().Add(s.cfg.ExpectedRTT)
	if tr := s.tel.tracer(); tr != nil {
		tr.Begin(e.Now(), "flow", s.label, int64(s.flow),
			obs.Arg{Key: "bytes", Val: fmt.Sprintf("%d", s.totalBytes)})
		s.traceWindow(e)
	}
	s.checkDone(e) // a zero-byte flow completes immediately
	s.trySend(e)
}

// traceWindow samples the congestion state (cwnd, alpha, RTO) onto the
// flow's counter tracks.
func (s *Sender) traceWindow(e *sim.Engine) {
	tr := s.tel.tracer()
	if tr == nil {
		return
	}
	tr.Count(e.Now(), "transport", "cwnd "+s.label, int64(s.flow), s.cwnd)
	tr.Count(e.Now(), "transport", "alpha "+s.label, int64(s.flow), s.alpha)
}

// Supply appends one packet of the given size to a streaming sender.
func (s *Sender) Supply(e *sim.Engine, size units.ByteSize) {
	if !s.streaming {
		panic("transport: Supply on fixed-size sender")
	}
	if s.suppliedPkts >= maxFlowPkts {
		panic(fmt.Sprintf("transport: a flow of more than %d packets", maxFlowPkts))
	}
	s.supplyQ.push(size)
	s.supplyBytes += size
	s.suppliedPkts++
	if s.started {
		s.trySend(e)
	}
}

// CloseSupply marks the end of a streaming sender's data.
func (s *Sender) CloseSupply(e *sim.Engine) {
	s.supplyClosed = true
	s.checkDone(e)
}

// Abort permanently silences the sender mid-flow: the RTO timer is
// cancelled, no further packets (fresh or retransmitted) are sent, and
// onDone never fires. The adaptive controller calls it when it re-homes a
// flow's remaining bytes onto a new path, so the abandoned leg's timers stop
// churning the event loop.
func (s *Sender) Abort() {
	s.aborted = true
	s.timer.Cancel()
	if tr := s.tel.tracer(); tr != nil && s.eng != nil && !s.done {
		tr.Instant(s.eng.Now(), "flow", "abort", int64(s.flow))
		tr.End(s.eng.Now(), "flow", s.label, int64(s.flow), obs.Arg{Key: "outcome", Val: "aborted"})
	}
}

// Aborted reports whether Abort was called.
func (s *Sender) Aborted() bool { return s.aborted }

// Done reports whether every byte has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// DoneAt returns when the flow completed (valid once Done).
func (s *Sender) DoneAt() units.Time { return s.doneAt }

// FCT returns the flow completion time — final ack minus Start — or 0 while
// the flow is still running.
func (s *Sender) FCT() units.Duration {
	if !s.done {
		return 0
	}
	return s.doneAt.Sub(s.startedAt)
}

// Cwnd returns the current congestion window in bytes.
func (s *Sender) Cwnd() units.ByteSize { return units.ByteSize(s.cwnd) }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() units.Duration { return s.srtt }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() units.Duration { return s.rto }

// Inflight returns the bytes currently outstanding.
func (s *Sender) Inflight() units.ByteSize { return s.inflight }

// SentBytes returns how many distinct payload bytes have been transmitted at
// least once (retransmissions excluded). Re-steering logic uses it to size
// the suffix of a flow that has not yet been exposed to the network.
func (s *Sender) SentBytes() units.ByteSize { return s.sentNew }

// FreezeNew stops the sender from ever transmitting bytes it has not yet
// sent at least once, while keeping the retransmission machinery (RTO,
// NACK recovery) alive for the bytes already exposed. A re-steer that moves
// a flow's un-sent suffix onto another path freezes the old leg: whatever
// was already in flight completes on its original path — with full loss
// recovery — and nothing new joins it.
func (s *Sender) FreezeNew() { s.frozen = true }

// Boost raises the congestion window to at least w and immediately tries to
// send. The adaptive workload starts flows with a small paced window while
// the controller decides where to steer the epoch; once the verdict is
// "stay direct" the full initial window is released with Boost. No-op on
// finished or aborted senders, and never shrinks the window.
func (s *Sender) Boost(e *sim.Engine, w units.ByteSize) {
	if s.done || s.aborted || float64(w) <= s.cwnd {
		return
	}
	s.cwnd = float64(w)
	s.traceWindow(e)
	s.trySend(e)
}

// SupplyBacklog returns the bytes supplied to a streaming sender that have
// not yet been transmitted for the first time — the naive proxy's relay
// queue occupancy.
func (s *Sender) SupplyBacklog() units.ByteSize { return s.supplyBytes }

// Handle implements netsim.Endpoint for ACK/NACK delivery. The sender is
// where control packets end, so it releases them.
func (s *Sender) Handle(e *sim.Engine, p *netsim.Packet) {
	switch p.Kind {
	case netsim.Ack:
		s.onAck(e, p)
	case netsim.Nack:
		s.onNack(e, p)
	}
	s.host.Release(p)
}

// state returns the table entry of sequence seq, growing the table to reach
// it.
func (s *Sender) state(seq int64) *pktState {
	for int64(len(s.pkts)) <= seq {
		s.pkts = append(s.pkts, pktState{})
	}
	return &s.pkts[seq]
}

// sizeOf returns the wire size of data packet seq.
func (s *Sender) sizeOf(seq int64) units.ByteSize {
	if seq >= 0 && seq < s.nextSeq {
		return units.ByteSize(s.pkts[seq].size) // recorded when seq was first transmitted
	}
	if s.streaming {
		panic("transport: unknown streaming packet size")
	}
	if seq == s.numPkts-1 {
		if rem := s.totalBytes % s.cfg.MSS; rem != 0 {
			return rem
		}
	}
	return s.cfg.MSS
}

// nextNewSize reports the size of the next fresh packet and whether one is
// available to send.
func (s *Sender) nextNewSize() (units.ByteSize, bool) {
	if s.frozen {
		return 0, false
	}
	if s.streaming {
		if s.supplyQ.len() == 0 {
			return 0, false
		}
		return s.supplyQ.front(), true
	}
	if s.nextSeq >= s.numPkts {
		return 0, false
	}
	return s.sizeOf(s.nextSeq), true
}

func (s *Sender) trySend(e *sim.Engine) {
	if s.aborted {
		return
	}
	for {
		// Retransmissions first.
		seq, size, retx, ok := s.pickNext()
		if !ok {
			return
		}
		if s.inflight > 0 && s.inflight+size > units.ByteSize(s.cwnd) {
			return
		}
		s.transmit(e, seq, size, retx)
	}
}

// pickNext chooses the next packet (retransmission before new data) without
// consuming it if the window blocks.
func (s *Sender) pickNext() (seq int64, size units.ByteSize, retx, ok bool) {
	for s.retxQ.len() > 0 {
		cand := s.retxQ.front()
		if st := &s.pkts[cand]; st.acked || !st.lost {
			s.retxQ.pop()
			continue
		}
		return cand, s.sizeOf(cand), true, true
	}
	sz, avail := s.nextNewSize()
	if !avail {
		return 0, 0, false, false
	}
	return s.nextSeq, sz, false, true
}

func (s *Sender) transmit(e *sim.Engine, seq int64, size units.ByteSize, retx bool) {
	st := s.state(seq)
	if retx {
		s.retxQ.pop()
		st.lost = false
		s.Stats.Retransmits++
	} else {
		if s.streaming {
			s.supplyQ.pop()
			s.supplyBytes -= size
		}
		st.size = int32(size)
		s.nextSeq++
		s.sentNew += size
	}
	if st.outstanding { // superseded: only the latest transmission is in flight
		s.land(seq, st)
	}
	s.link(seq, st)
	st.sentAt, st.outstanding, st.retx = e.Now(), true, retx
	pkt := s.host.NewPacket()
	pkt.Flow = s.flow
	pkt.Kind = netsim.Data
	pkt.Seq = seq
	pkt.Size = size
	pkt.FullSize = size
	pkt.Dst = s.dst
	pkt.FinalDst = s.finalDst
	pkt.Retx = retx
	pkt.SentAt = e.Now()

	s.inflight += size
	s.Stats.PktsSent++
	s.host.Send(e, pkt)
	if !s.timer.Pending() {
		s.timer.ArmAfter(s.rto)
	}
}

func (s *Sender) onAck(e *sim.Engine, p *netsim.Packet) {
	seq := p.Seq
	st := s.state(seq)
	wasOutstanding := st.outstanding
	if wasOutstanding {
		s.land(seq, st)
		if !st.retx && !p.Retx {
			s.sampleRTT(e.Now().Sub(st.sentAt))
		}
		s.backoff = 0
	}
	if !st.acked {
		wasLost := st.lost
		st.acked = true
		s.ackedBytes += s.sizeOf(seq)
		s.ackedPkts++
		if s.ackedPkts == 1 {
			if tr := s.tel.tracer(); tr != nil {
				tr.Instant(e.Now(), "flow", "first-ack", int64(s.flow))
			}
		}
		st.lost = false // a late arrival cancels a pending retransmit
		// F-RTO-style undo (RFC 5682 spirit, cited by the paper): an
		// ACK of an *original* transmission for a packet the timeout
		// declared lost proves the timeout was spurious (a truly lost
		// original is never acked) — restore the window instead of
		// crawling back from one MSS. At most one undo per timeout.
		if wasLost && !p.Retx && !s.rtoUndone && s.lastTimeoutAt != 0 {
			s.cwnd = maxf(s.cwnd, s.ssthresh)
			s.backoff = 0
			s.rtoUndone = true
			s.Stats.SpuriousRTO++
			if tr := s.tel.tracer(); tr != nil {
				tr.Instant(e.Now(), "flow", "rto-undo", int64(s.flow))
			}
		}
		marked := p.EchoECN
		if marked && (!wasOutstanding || st.sentAt < s.recoveryPoint) {
			marked = false // stale signal from before the last reduction
		}
		s.updateWindow(e, s.sizeOf(seq), marked)
		s.traceWindow(e)
	}
	s.checkDone(e)
	s.trySend(e)
}

func (s *Sender) onNack(e *sim.Engine, p *netsim.Packet) {
	seq := p.Seq
	s.Stats.Nacks++
	st := s.state(seq)
	if !st.outstanding || st.acked {
		return // stale NACK for something already resolved
	}
	s.land(seq, st)
	if !st.lost {
		st.lost = true
		s.retxQ.push(seq)
	}
	// Loss signal: multiplicative decrease, at most once per RTT
	// ("decreases the window upon receiving ... NACK packet", §4.1).
	// NACKs for pre-recovery packets are stale.
	if st.sentAt >= s.recoveryPoint && s.allowDecrease(e) {
		s.cwnd = s.cwnd / 2
		s.clampWindow()
		s.ssthresh = s.cwnd
		s.Stats.Decreases++
		s.traceWindow(e)
	}
	if tr := s.tel.tracer(); tr != nil {
		tr.Instant(e.Now(), "flow", "nack", int64(s.flow),
			obs.Arg{Key: "seq", Val: fmt.Sprintf("%d", seq)})
	}
	s.trySend(e)
}

// updateWindow applies the §4.1 control law to one acked packet.
func (s *Sender) updateWindow(e *sim.Engine, size units.ByteSize, marked bool) {
	s.winAcked += size
	if marked {
		s.Stats.MarkedAcks++
		s.winMarked += size
	} else {
		s.Stats.UnmarkedAcks++
	}
	// Update DCTCP alpha once per RTT.
	if e.Now() >= s.alphaNext {
		frac := 0.0
		if s.winAcked > 0 {
			frac = float64(s.winMarked) / float64(s.winAcked)
		}
		s.alpha = (1-s.cfg.Gain)*s.alpha + s.cfg.Gain*frac
		s.winAcked, s.winMarked = 0, 0
		s.alphaNext = e.Now().Add(s.currentRTT())
	}
	if marked {
		// DCTCP-style decrease: scale the window by the marked
		// fraction estimate. ssthresh is deliberately left alone —
		// ECN is an early signal, not a loss; clobbering ssthresh
		// here would end slow-start recovery permanently.
		if s.allowDecrease(e) {
			beta := s.alpha / 2
			if s.cfg.GeminiMode {
				// Gemini: milder reduction for longer-RTT
				// flows (beta scaled by RTTRef/RTT).
				if rtt := s.currentRTT(); rtt > s.cfg.RTTRef {
					beta *= float64(s.cfg.RTTRef) / float64(rtt)
				}
			}
			s.cwnd = s.cwnd * (1 - beta)
			s.clampWindow()
			s.Stats.Decreases++
		}
		return
	}
	// Unmarked ACK: increase. Slow start below ssthresh, else additive
	// increase of one MSS per RTT.
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(size)
	} else {
		s.cwnd += float64(s.cfg.MSS) * float64(size) / s.cwnd
	}
}

func (s *Sender) allowDecrease(e *sim.Engine) bool {
	rtt := s.currentRTT()
	if s.lastDecrease != 0 && e.Now().Sub(s.lastDecrease) < rtt {
		return false
	}
	s.lastDecrease = e.Now()
	s.recoveryPoint = e.Now()
	return true
}

func (s *Sender) clampWindow() {
	if s.cwnd < float64(s.cfg.MinWindow) {
		s.cwnd = float64(s.cfg.MinWindow)
	}
}

func (s *Sender) currentRTT() units.Duration {
	if s.srtt > 0 {
		return s.srtt
	}
	return s.cfg.ExpectedRTT
}

// sampleRTT runs the standard SRTT/RTTVAR estimator (RFC 6298 constants).
func (s *Sender) sampleRTT(rtt units.Duration) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.tel.observeRTT(rtt)
}

// rtoFire is the Sender as the handler of its retransmission timer.
type rtoFire Sender

func (f *rtoFire) Fire(e *sim.Engine, _ any) { (*Sender)(f).onTimeout(e) }

// onTimeout fires when the oldest outstanding packet has been unacknowledged
// for a full (backed-off) RTO. A timeout declares the ENTIRE outstanding
// window lost — go-back-N, as in htsim — not just the packets older than the
// deadline: the window resets to its minimum (§4.1: "the sender resets its
// congestion window upon timeout"), so anything still marked in flight is a
// fiction. Expiring entries one RTO-age at a time instead would livelock a
// long outage: packets transmitted into the blackhole keep refreshing the
// flight list, and once the backed-off RTO pegs at MaxRTO the timer fires once
// per straggler, microseconds apart, defeating the backoff entirely.
func (s *Sender) onTimeout(e *sim.Engine) {
	// Has the oldest transmission in flight exceeded its deadline?
	if oldest := s.oldestOutstanding(); oldest != nil && oldest.sentAt <= e.Now().Add(-s.effectiveRTO()) {
		// Flush the whole window into the retransmit queue, oldest first.
		flushed := 0
		for s.flightHead != 0 {
			seq := int64(s.flightHead - 1)
			st := &s.pkts[seq]
			s.land(seq, st)
			if !st.lost {
				st.lost = true
				s.retxQ.push(seq)
				flushed++
			}
		}
		s.Stats.Timeouts++
		if tr := s.tel.tracer(); tr != nil {
			tr.Instant(e.Now(), "flow", "rto", int64(s.flow),
				obs.Arg{Key: "flushed", Val: fmt.Sprintf("%d", flushed)},
				obs.Arg{Key: "backoff", Val: fmt.Sprintf("%d", s.backoff)})
		}
		// Standard loss-recovery target: remember half the pre-loss
		// window so slow start rebuilds quickly, then reset the
		// window itself (§4.1: "resets its congestion window upon
		// timeout").
		s.ssthresh = maxf(s.cwnd/2, float64(2*s.cfg.MSS))
		s.cwnd = float64(s.cfg.MinWindow)
		s.recoveryPoint = e.Now()
		s.lastTimeoutAt = e.Now()
		s.rtoUndone = false
		if s.backoff < 16 {
			s.backoff++
		}
		s.traceWindow(e)
	}
	s.rearmTimer(e)
	s.trySend(e)
}

func (s *Sender) effectiveRTO() units.Duration {
	r := s.rto << s.backoff
	if r > s.cfg.MaxRTO || r <= 0 {
		r = s.cfg.MaxRTO
	}
	return r
}

// rearmTimer schedules the next expiry check at the oldest outstanding
// packet's deadline.
func (s *Sender) rearmTimer(e *sim.Engine) {
	if oldest := s.oldestOutstanding(); oldest != nil {
		s.timer.Arm(oldest.sentAt.Add(s.effectiveRTO()))
		return
	}
	s.timer.Cancel()
}

// link appends seq, which is not in flight, at the flight list's tail.
func (s *Sender) link(seq int64, st *pktState) {
	if debugFlight && (st.outstanding || st.prev != 0 || st.next != 0 || s.flightHead == int32(seq+1)) {
		panic(fmt.Sprintf("transport: flow %d links seq %d, which is already in flight", s.flow, seq))
	}
	st.prev = s.flightTail
	if s.flightTail != 0 {
		s.pkts[s.flightTail-1].next = int32(seq + 1)
	} else {
		s.flightHead = int32(seq + 1)
	}
	s.flightTail = int32(seq + 1)
}

// land takes outstanding seq out of flight: off the flight list in O(1),
// and its bytes out of inflight.
func (s *Sender) land(seq int64, st *pktState) {
	if debugFlight && !st.outstanding {
		panic(fmt.Sprintf("transport: flow %d unlinks seq %d, which is not in flight", s.flow, seq))
	}
	if st.prev != 0 {
		s.pkts[st.prev-1].next = st.next
	} else {
		s.flightHead = st.next
	}
	if st.next != 0 {
		s.pkts[st.next-1].prev = st.prev
	} else {
		s.flightTail = st.prev
	}
	st.prev, st.next, st.outstanding = 0, 0, false
	s.inflight -= units.ByteSize(st.size)
}

// oldestOutstanding returns the state at the flight list's head, the oldest
// transmission still in flight, or nil if none is.
func (s *Sender) oldestOutstanding() *pktState {
	if s.flightHead == 0 {
		return nil
	}
	return &s.pkts[s.flightHead-1]
}

func (s *Sender) checkDone(e *sim.Engine) {
	if s.done || s.aborted {
		return
	}
	complete := false
	if s.streaming {
		complete = s.supplyClosed && s.supplyQ.len() == 0 && s.ackedPkts == s.suppliedPkts
	} else {
		complete = s.ackedBytes >= s.totalBytes && s.totalBytes >= 0
	}
	if complete {
		s.done = true
		s.doneAt = e.Now()
		s.timer.Cancel()
		s.tel.observeFCT(s.doneAt.Sub(s.startedAt))
		if tr := s.tel.tracer(); tr != nil {
			tr.End(e.Now(), "flow", s.label, int64(s.flow),
				obs.Arg{Key: "outcome", Val: "completed"})
		}
		if s.onDone != nil {
			s.onDone(e.Now())
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
