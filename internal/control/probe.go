package control

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// ProbeFlowBase offsets probe flow IDs far above data flows (data flows use
// the low IDs, the naive proxy's down-flows sit at 1<<20, adaptive
// re-homed flows at 1<<21) so probe traffic can never collide with a flow
// binding.
const ProbeFlowBase netsim.FlowID = 1 << 22

// Prober measures one path by sending tiny data-band packets from a host to
// an echo endpoint and timing the round trip. Probes are ControlSize data
// packets, so they queue in the same band as real payload — they feel the
// queueing delay the path would inflict on data — but cost a negligible 64 B
// each. Unanswered probes past the timeout count as losses. All results feed
// the attached PathEstimator.
type Prober struct {
	host    *netsim.Host
	target  netsim.NodeID
	flow    netsim.FlowID
	est     *PathEstimator
	every   units.Duration
	timeout units.Duration
	phase   units.Duration

	seq         int64
	outstanding map[int64]units.Time
	until       units.Time
	started     bool
}

// NewProber builds a prober from host toward target (which must have an
// echo bound on the same flow — see BindEcho). src supplies a deterministic
// initial phase offset in [0, every) so multiple probers don't tick in
// lockstep; a nil src means phase 0.
func NewProber(host *netsim.Host, target netsim.NodeID, flow netsim.FlowID,
	est *PathEstimator, every, timeout units.Duration, src *rng.Source) *Prober {
	p := &Prober{
		host:        host,
		target:      target,
		flow:        flow,
		est:         est,
		every:       every,
		timeout:     timeout,
		outstanding: make(map[int64]units.Time),
	}
	if src != nil && every > 0 {
		p.phase = units.Duration(src.Int63() % int64(every))
	}
	return p
}

// BindEcho installs the probe responder on a host: every probe data packet
// arriving on flow is answered with an ACK back to its source, preserving
// SentAt so the prober can compute the round trip. Works for trimmed probes
// too (a trimmed header still proves liveness; its RTT reflects the priority
// band, and the estimator's min-tracking absorbs the skew).
func BindEcho(h *netsim.Host, flow netsim.FlowID) {
	h.Bind(flow, netsim.EndpointFunc(func(e *sim.Engine, p *netsim.Packet) {
		defer h.Release(p)
		if p.Kind != netsim.Data {
			return
		}
		r := h.NewPacket()
		r.Flow = flow
		r.Kind = netsim.Ack
		r.Seq = p.Seq
		r.Size = netsim.ControlSize
		r.FullSize = netsim.ControlSize
		r.Dst = p.Src
		r.SentAt = p.SentAt
		h.Send(e, r)
	}))
}

// Start binds the prober's reply handler and begins the probe loop; until
// bounds it in virtual time.
func (p *Prober) Start(e *sim.Engine, until units.Time) {
	if p.started {
		return
	}
	p.started = true
	p.until = until
	p.host.Bind(p.flow, netsim.EndpointFunc(p.onReply))
	e.Schedule(e.Now().Add(p.phase), p.sendProbe)
}

func (p *Prober) sendProbe(e *sim.Engine) {
	now := e.Now()
	// Expire stale probes first: anything unanswered past the timeout is
	// a loss (the echo host is down or the path is blackholed).
	for seq, at := range p.outstanding {
		if now.Sub(at) >= p.timeout {
			delete(p.outstanding, seq)
			p.est.ObserveLoss(true)
		}
	}
	pkt := p.host.NewPacket()
	pkt.Flow = p.flow
	pkt.Kind = netsim.Data
	pkt.Seq = p.seq
	pkt.Size = netsim.ControlSize
	pkt.FullSize = netsim.ControlSize
	pkt.Dst = p.target
	pkt.SentAt = now
	p.outstanding[p.seq] = now
	p.seq++
	p.host.Send(e, pkt)
	if next := now.Add(p.every); next <= p.until {
		e.Schedule(next, p.sendProbe)
	}
}

func (p *Prober) onReply(e *sim.Engine, pkt *netsim.Packet) {
	defer p.host.Release(pkt)
	if pkt.Kind != netsim.Ack {
		return
	}
	if _, ok := p.outstanding[pkt.Seq]; !ok {
		return // answered after the timeout already counted it lost
	}
	delete(p.outstanding, pkt.Seq)
	p.est.ObserveRTT(e.Now().Sub(pkt.SentAt))
	p.est.ObserveLoss(false)
}

// Outstanding returns how many probes are currently unanswered.
func (p *Prober) Outstanding() int { return len(p.outstanding) }
