package workload

import (
	"sync"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// pathEstimator tracks one path's liveness from probe outcomes: a
// per-probe loss EWMA. Smoothing is per-sample (fixed gain) rather than
// per-virtual-time, so the estimator itself never reads any clock. The zero
// value is an estimator with no probe history.
//
// All methods are safe for concurrent use.
type pathEstimator struct {
	mu       sync.Mutex
	lossEwma float64 // per-probe loss indicator EWMA in [0,1]
	sent     uint64
	lost     uint64
}

// estimatorGain is the per-sample EWMA gain.
const estimatorGain = 0.2

// observeLoss records one probe outcome (lost or answered).
func (p *pathEstimator) observeLoss(lostProbe bool) {
	if p == nil {
		return
	}
	v := 0.0
	if lostProbe {
		v = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	if lostProbe {
		p.lost++
	}
	p.lossEwma += estimatorGain * (v - p.lossEwma)
}

// lossRate returns the smoothed probe loss fraction in [0,1].
func (p *pathEstimator) lossRate() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lossEwma
}

// probes returns (sent, lost) probe counts.
func (p *pathEstimator) probes() (sent, lost uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent, p.lost
}

// healthy reports whether the path's smoothed probe loss is below maxLoss.
// The EWMA starts at zero, so a path with no probe history is presumed
// healthy (innocent until probed), and one late probe moves it only by the
// gain: a single timeout does not read as a dead path.
func (p *pathEstimator) healthy(maxLoss float64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lossEwma < maxLoss
}

// prober checks one path's liveness by sending tiny data-band packets on
// probeFlow from a host to an echo endpoint. Probes are ControlSize data
// packets, so they queue in the same band as real payload, but cost a
// negligible 64 B each. A probe answered within the timeout counts as
// delivered, one unanswered past it as lost; every outcome feeds est.
type prober struct {
	host    *netsim.Host
	target  netsim.NodeID
	est     *pathEstimator
	every   units.Duration
	timeout units.Duration
	phase   units.Duration

	seq         int64
	outstanding map[int64]units.Time
	until       units.Time
}

// newProber builds a prober from host toward target, which must answer on
// probeFlow (bindEcho). src supplies a deterministic initial phase offset in
// [0, every).
func newProber(host *netsim.Host, target netsim.NodeID, est *pathEstimator,
	every, timeout units.Duration, src *rng.Source) *prober {
	return &prober{
		host:        host,
		target:      target,
		est:         est,
		every:       every,
		timeout:     timeout,
		phase:       units.Duration(src.Int63() % int64(every)),
		outstanding: make(map[int64]units.Time),
	}
}

// bindEcho installs the probe responder on a host: every probe data packet
// arriving on probeFlow is answered with an ACK back to its source. Works
// for trimmed probes too: a trimmed header still proves liveness.
func bindEcho(h *netsim.Host) {
	h.Bind(probeFlow, netsim.EndpointFunc(func(e *sim.Engine, p *netsim.Packet) {
		defer h.Release(p)
		if p.Kind != netsim.Data {
			return
		}
		r := h.NewPacket()
		r.Flow = probeFlow
		r.Kind = netsim.Ack
		r.Seq = p.Seq
		r.Size = netsim.ControlSize
		r.FullSize = netsim.ControlSize
		r.Dst = p.Src
		h.Send(e, r)
	}))
}

// start binds the prober's reply handler and begins the probe loop; until
// bounds it in virtual time.
func (p *prober) start(e *sim.Engine, until units.Time) {
	p.until = until
	p.host.Bind(probeFlow, netsim.EndpointFunc(p.onReply))
	e.Schedule(e.Now().Add(p.phase), p.sendProbe)
}

func (p *prober) sendProbe(e *sim.Engine) {
	now := e.Now()
	// Expire stale probes first: anything unanswered past the timeout is
	// a loss (the echo host is down or the path is blackholed).
	for seq, at := range p.outstanding {
		if now.Sub(at) >= p.timeout {
			delete(p.outstanding, seq)
			p.est.observeLoss(true)
		}
	}
	pkt := p.host.NewPacket()
	pkt.Flow = probeFlow
	pkt.Kind = netsim.Data
	pkt.Seq = p.seq
	pkt.Size = netsim.ControlSize
	pkt.FullSize = netsim.ControlSize
	pkt.Dst = p.target
	p.outstanding[p.seq] = now
	p.seq++
	p.host.Send(e, pkt)
	if next := now.Add(p.every); next <= p.until {
		e.Schedule(next, p.sendProbe)
	}
}

func (p *prober) onReply(_ *sim.Engine, pkt *netsim.Packet) {
	defer p.host.Release(pkt)
	if pkt.Kind != netsim.Ack {
		return
	}
	if _, ok := p.outstanding[pkt.Seq]; !ok {
		return // answered after the timeout already counted it lost
	}
	delete(p.outstanding, pkt.Seq)
	p.est.observeLoss(false)
}
