// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12. The model
// is clock-free by construction: it computes with units.Duration only.)

// Package model is the analytical twin of the packet-level incast
// simulation: a clock-free, closed-form estimator that predicts an incast
// epoch's completion time, FCT distribution, and goodput in microseconds of
// wall time instead of the seconds-to-minutes a DES run costs.
//
// It follows the fluid/queueing style of Zhao et al.'s tail-latency
// estimation and RepFlow's M/G/1 FCT reasoning (see PAPERS.md): the epoch
// is decomposed into a first-RTT burst that either fits the bottleneck
// buffer or overflows it, a loss-recovery phase paced by go-back-N
// retransmission timeouts and slow-start rounds, and — for the proxy
// schemes — a split-RTT pipeline whose only residual cost is trimmed-header
// churn at the sending-DC ToR. Every constant below was calibrated against
// the simulator on the Figure 2/3 sweep grids; internal/model's validation
// tests pin the resulting error bounds per regime, and `figures -fig
// modelerr` prints the full sim-vs-model table.
//
// The model is deliberately coarse where the DES is exact (per-packet
// spraying, DCTCP marking dynamics, per-flow stragglers); DESIGN.md §13
// documents the regime boundaries and the known error sources.
package model

import (
	"fmt"
	"math"

	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// Regime labels which closed-form branch produced a prediction; the
// validation harness asserts different error bounds per regime.
type Regime int

// The model's regimes.
const (
	// RegimeNoLoss: the first-RTT burst fits the receiver down-ToR buffer
	// and the whole transfer fits the senders' initial windows — the epoch
	// is one pipelined transmission.
	RegimeNoLoss Regime = iota
	// RegimeSustained: no first-RTT overflow, but the transfer needs
	// multiple window rounds; late slow-start growth costs a straggler
	// timeout on the long loop.
	RegimeSustained
	// RegimeOverflow: the burst overflows the buffer; the baseline pays an
	// initial RTO plus RTT-paced go-back-N recovery of the overflow.
	RegimeOverflow
	// RegimeProxy: the epoch is relayed through an in-DC proxy; losses (if
	// any) are repaired over the short intra-DC loop, leaving trimmed-header
	// churn (streamlined) or one short recovery stall (naive) as the only
	// penalty on top of the split-RTT pipeline.
	RegimeProxy
)

func (r Regime) String() string {
	switch r {
	case RegimeNoLoss:
		return "no-loss"
	case RegimeSustained:
		return "sustained"
	case RegimeOverflow:
		return "overflow"
	case RegimeProxy:
		return "proxy"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Params parameterizes one incast epoch for the analytical model. Build it
// from a full workload.Spec with FromSpec (which derives the analytic path
// RTTs from the topology), or directly from coarse control-plane state (the
// orchestrator's Request) when no fabric exists.
type Params struct {
	// Scheme selects the closed form (SchemeAdaptive is not modeled:
	// its controller re-steers mid-epoch; use Compare for its two
	// candidate outcomes).
	Scheme workload.Scheme
	// Degree is the sender fan-in; TotalBytes the epoch's aggregate size
	// (split equally among senders, as the workload does).
	Degree     int
	TotalBytes units.ByteSize

	// DirectRTT is the sender<->receiver round-trip of the direct path;
	// ProxyUpRTT the sender<->proxy round-trip; ProxyDownRTT the
	// proxy<->receiver round-trip (defaults to DirectRTT: the down leg
	// rides the same long-haul path).
	DirectRTT    units.Duration
	ProxyUpRTT   units.Duration
	ProxyDownRTT units.Duration

	// Rate is the uniform link rate (the bottleneck drain rate); Buffer
	// the down-ToR queue capacity at both candidate congestion points.
	Rate   units.BitRate
	Buffer units.ByteSize
	// FanIn caps the burst's concurrent arrival multiplier: however many
	// senders transmit, at most FanIn uplinks feed the bottleneck leaf
	// (the spine count; default 8, the §4.1 fabric).
	FanIn int

	// MSS is the data-packet wire size (default 1500 B); HeaderBytes the
	// trimmed-header/control size (default 64 B); IWScale the initial
	// window in BDP multiples (default 1); MinRTO the transport's timeout
	// floor (default transport.DefaultMinRTO).
	MSS         units.ByteSize
	HeaderBytes units.ByteSize
	IWScale     float64
	MinRTO      units.Duration

	// CrossBytes is background traffic contending for the proxy down-ToR
	// during the epoch (the direct path is unaffected — exactly the
	// asymmetry cross traffic creates in the simulator).
	CrossBytes units.ByteSize
	// IncastDelay offsets the epoch start; it is included in ICT (the
	// simulator's ICT is the absolute last completion time) but not in
	// the per-flow FCTs.
	IncastDelay units.Duration
}

// Prediction is the model's answer for one (Params, Scheme) cell.
type Prediction struct {
	// ICT is the incast completion time: last byte at the receiver,
	// measured from time zero (includes IncastDelay, like the simulator).
	ICT units.Duration
	// P50/P99/Mean summarize the per-flow FCT distribution (measured from
	// the epoch start, excluding IncastDelay, like the simulator's
	// receiver-side FCTs).
	P50, P99, Mean units.Duration
	// Goodput is TotalBytes over the epoch duration.
	Goodput units.BitRate
	// LossBytes estimates the first-burst buffer overflow (dropped bytes
	// on the direct path, trimmed bytes on the streamlined proxy path).
	LossBytes units.ByteSize
	// Regime is the closed-form branch that produced the numbers.
	Regime Regime

	// Where the epoch's time goes: ICT = IncastDelay + Prop + Serve + Churn
	// + Stall + Spread. Prop is one-way path propagation; Serve the
	// serialization at the bottleneck that nothing else hides (in the
	// overflow regime only the bytes past the first burst: the burst itself
	// lands during the stall); Churn the time spent repairing loss —
	// go-back-N recovery rounds on the direct path, trimmed-header slots on
	// the streamlined one; Stall the timeout waits (the initial RTO, or a
	// regime's straggler penalty); Spread the fan-in straggler spread.
	Prop, Serve, Churn, Stall, Spread units.Duration
	// Trims estimates the headers the proxy down-ToR trims (streamlined
	// only): Churn counted in HeaderBytes serialization slots.
	Trims uint64
}

// epoch is the sum of the terms: the ICT less IncastDelay.
func (pr Prediction) epoch() units.Duration {
	return pr.Prop + pr.Serve + pr.Churn + pr.Stall + pr.Spread
}

// Calibrated constants. Each was fitted to the packet-level simulator on
// the Figure 2 (Left/Right) and Figure 3 grids; the validation tests assert
// the residual error bounds.
const (
	// stragglerSpreadRTT spreads the overflow recovery's completion over
	// the fan-in: the last flow to win slow-start rounds finishes about
	// 2.5 RTT per doubling of degree after the first.
	stragglerSpreadRTT = 2.5
	// p50SpreadFraction separates the median flow from the last one in
	// the overflow regime (p50 = p99 - fraction*Degree*RTT).
	p50SpreadFraction = 0.15
	// sustainedDirectRTOs is the direct path's sustained-regime straggler
	// penalty in MinRTO units: late window growth overshoots the buffer
	// and one-and-a-half timeout cycles repair it.
	sustainedDirectRTOs = 1.5
	// sustainedProxyRTOs is the streamlined path's equivalent: the short
	// NACK loop repairs most of it, leaving three quarters of a timeout.
	sustainedProxyRTOs = 0.75
	// naiveLossBufferFactor gates the naive relay's recovery stall: its
	// split connections ride independent windows, so the proxy ToR only
	// collapses once the queued share clears ~2.5 buffers.
	naiveLossBufferFactor = 2.5
)

// withDefaults fills zero fields with the §4.1 fabric's parameters, so
// coarse callers (the orchestrator's Request) get the same defaults the
// simulator's spec machinery applies.
func (p Params) withDefaults() Params {
	def := topo.DefaultConfig()
	if p.Degree < 1 {
		p.Degree = 1
	}
	if p.Rate <= 0 {
		p.Rate = def.LinkRate
	}
	if p.Buffer <= 0 {
		p.Buffer = def.TorQueue.Capacity
	}
	if p.FanIn <= 0 {
		p.FanIn = def.Spines
	}
	if p.MSS <= 0 {
		p.MSS = transport.DefaultMSS
	}
	if p.HeaderBytes <= 0 {
		p.HeaderBytes = 64
	}
	if p.IWScale <= 0 {
		p.IWScale = 1
	}
	if p.MinRTO <= 0 {
		p.MinRTO = transport.DefaultMinRTO
	}
	if p.ProxyDownRTT <= 0 {
		p.ProxyDownRTT = p.DirectRTT
	}
	return p
}

// Predict evaluates the closed-form model for one scheme. It never runs the
// simulator; a call costs well under a microsecond (BenchmarkPredictFCT).
// SchemeAdaptive is not modeled — Predict treats it as the streamlined
// proxy outcome; use Compare to see both candidate paths the adaptive
// controller chooses between.
func Predict(p Params) Prediction {
	p = p.withDefaults()
	if p.TotalBytes <= 0 {
		return Prediction{}
	}
	if p.Scheme == workload.Baseline {
		return predictDirect(p)
	}
	return predictProxied(p)
}

// Compare evaluates both candidate routings of one epoch: the direct path
// and the proxied path (p.Scheme when it names a proxy design, streamlined
// otherwise): the two outcomes the adaptive controller chooses between, as
// `incastsim -estimate` prints them.
func Compare(p Params) (direct, proxied Prediction) {
	d := p
	d.Scheme = workload.Baseline
	x := p
	if x.Scheme == workload.Baseline || x.Scheme == workload.SchemeAdaptive {
		x.Scheme = workload.ProxyStreamlined
	}
	return Predict(d), Predict(x)
}

// effFanIn is the burst's concurrent arrival multiplier: senders beyond the
// spine count cannot add arrival bandwidth at the bottleneck leaf.
func (p Params) effFanIn() int {
	if p.Degree < p.FanIn {
		return p.Degree
	}
	return p.FanIn
}

// burstBytes is the first-RTT injection: Degree windows of min(share, IW).
func (p Params) burstBytes(iw units.ByteSize) units.ByteSize {
	share := p.TotalBytes / units.ByteSize(p.Degree)
	if iw < share {
		share = iw
	}
	return share * units.ByteSize(p.Degree)
}

// overflowBytes is the first-burst buffer overflow at the bottleneck: the
// burst arrives at effFanIn times the drain rate, so the queue absorbs only
// 1/effFanIn of it while it lands; what exceeds the buffer is lost (dropped
// on the direct path, trimmed on the streamlined proxy path).
func (p Params) overflowBytes(burst units.ByteSize) units.ByteSize {
	fan := p.effFanIn()
	if fan <= 1 {
		return -p.Buffer
	}
	queued := burst * units.ByteSize(fan-1) / units.ByteSize(fan)
	return queued - p.Buffer
}

// scaleIW applies IWScale to a BDP-sized window.
func (p Params) scaleIW(bdp units.ByteSize) units.ByteSize {
	return units.ByteSize(float64(bdp) * p.IWScale)
}

// predictDirect models the baseline: every byte crosses the long-haul path,
// and first-burst overflow is repaired by go-back-N timeouts over it.
func predictDirect(p Params) Prediction {
	rtt := p.DirectRTT
	oneway := rtt / 2
	serve := p.Rate.TransmitTime(p.TotalBytes)
	iw := p.scaleIW(p.Rate.BDP(rtt))
	burst := p.burstBytes(iw)
	over := p.overflowBytes(burst)

	pred := Prediction{Regime: RegimeNoLoss, Prop: oneway}
	if over <= 0 {
		pred.Serve = serve
		if p.Degree >= 2 && p.TotalBytes > burst {
			// Sustained: multi-round window growth eventually overshoots
			// the buffer; the straggler repairs it over the long loop.
			pred.Regime = RegimeSustained
			pred.Stall = units.Duration(sustainedDirectRTOs * float64(p.MinRTO))
		}
		pred.P99 = pred.epoch()
		pred.P50 = pred.P99 - pred.Stall/2
		return finishPrediction(pred, p)
	}

	// Overflow: the whole burst transmission overlaps the initial-RTO
	// wait (initRTO exceeds the burst's serialization by construction),
	// so the epoch is the RTO stall plus slow-start recovery of the
	// overflow — log2(over/deg·MSS) doubling rounds, each one RTT plus
	// draining the refilled buffer — plus a fan-in straggler spread.
	pred.Regime = RegimeOverflow
	pred.LossBytes = over
	initRTO := 3*rtt + p.Rate.TransmitTime(units.ByteSize(p.Degree)*iw)
	if initRTO < p.MinRTO {
		initRTO = p.MinRTO
	}
	rounds := math.Log2(float64(over)/float64(units.ByteSize(p.Degree)*p.MSS) + 1)
	if rounds < 0 {
		rounds = 0
	}
	refill := over
	if refill > p.Buffer {
		refill = p.Buffer
	}
	recovery := units.Duration(rounds * float64(rtt+p.Rate.TransmitTime(refill)))
	if lg := math.Log2(float64(p.Degree)); lg > 1 {
		pred.Spread = units.Duration(stragglerSpreadRTT * float64(rtt) * (lg - 1))
	}
	// Bytes beyond the first burst ride later window rounds and cannot
	// overlap the stall (zero on the 1 ms-latency grids, where IW covers
	// each share).
	var tail units.ByteSize
	if p.TotalBytes > burst {
		tail = p.TotalBytes - burst
	}
	pred.Stall = initRTO
	pred.Churn = recovery
	pred.Serve = p.Rate.TransmitTime(tail)
	pred.P99 = pred.epoch()
	pred.P50 = pred.P99 - units.Duration(p50SpreadFraction*float64(p.Degree)*float64(rtt))
	if pred.P50 < oneway {
		pred.P50 = oneway
	}
	return finishPrediction(pred, p)
}

// predictProxied models the relayed schemes: the transfer pipelines through
// the split RTT (up-leg one-way + serialization + down-leg one-way), and
// losses are repaired over the short intra-DC loop.
func predictProxied(p Params) Prediction {
	rttUp := p.ProxyUpRTT
	rttDown := p.ProxyDownRTT
	pathRTT := rttUp + rttDown
	// Cross traffic shares the proxy down-ToR; whatever drained during
	// the incast's head start no longer contends.
	cross := p.CrossBytes - p.Rate.BytesIn(p.IncastDelay)
	if cross < 0 {
		cross = 0
	}
	serveBytes := p.TotalBytes + cross
	serve := p.Rate.TransmitTime(serveBytes)
	iw := p.scaleIW(p.Rate.BDP(pathRTT))
	burst := p.burstBytes(iw)
	over := p.overflowBytes(burst)

	pred := Prediction{Regime: RegimeProxy, Prop: rttUp/2 + rttDown/2, Serve: serve}

	switch p.Scheme {
	case workload.ProxyNaive:
		// The naive relay's split connections drop (no trimming); one
		// recovery stall appears once the queued share clears well past
		// the buffer.
		queued := p.TotalBytes * units.ByteSize(p.effFanIn()-1) / units.ByteSize(p.effFanIn())
		if p.Degree >= 2 && float64(queued) > naiveLossBufferFactor*float64(p.Buffer) {
			pred.Stall = p.MinRTO + p.Rate.TransmitTime(p.Buffer)/2
			if over > 0 {
				pred.LossBytes = over
			}
		}
		pred.P99 = pred.epoch()
		pred.P50 = pred.P99 - pred.Stall/2

	default:
		// Streamlined (and the inferring variant, which behaves like it
		// with sequence-gap detection standing in for trimming): each
		// trimmed header consumes one header-serialization slot at the
		// bottleneck while the backlog persists, so the residual churn is
		// alpha/(1-alpha) of the backlog's drain time, with alpha the
		// header-to-data serialization ratio across the extra fan-in.
		backlog := serveBytes - p.Buffer
		if backlog < 0 {
			backlog = 0
		}
		alpha := float64(p.effFanIn()-1) * float64(p.HeaderBytes) / float64(p.MSS)
		if alpha > 0.9 {
			alpha = 0.9
		}
		// Sustained multi-round growth (no first-burst overflow) trims
		// later rounds; the short NACK loop repairs them, but once a share
		// needs several slow-start doublings past its initial window the
		// late rounds overshoot hard enough to cost a straggler timeout.
		sustained := over <= 0 && p.Degree >= 2 && p.TotalBytes > burst
		if over > 0 || sustained {
			pred.Churn = units.Duration(alpha / (1 - alpha) * float64(p.Rate.TransmitTime(backlog)))
			pred.Trims = uint64(alpha / (1 - alpha) * float64(backlog) / float64(p.HeaderBytes))
		}
		if over > 0 {
			pred.LossBytes = over
		} else if sustained && p.TotalBytes/units.ByteSize(p.Degree) > 4*iw {
			pred.Stall = units.Duration(sustainedProxyRTOs * float64(p.MinRTO))
		}
		pred.P99 = pred.epoch()
		pred.P50 = pred.P99 - pred.Stall
	}
	if half := pred.epoch() / 2; pred.P50 < half {
		pred.P50 = half
	}
	return finishPrediction(pred, p)
}

// finishPrediction fills the fields derived from the terms.
func finishPrediction(pred Prediction, p Params) Prediction {
	pred.ICT = p.IncastDelay + pred.epoch()
	pred.Mean = pred.P50
	if epoch := pred.epoch(); epoch > 0 {
		pred.Goodput = units.BitRate(float64(p.TotalBytes.Bits()) / epoch.Seconds())
	}
	return pred
}
