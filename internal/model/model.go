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
// buffer or overflows it, a loss-recovery phase of go-back-N retransmission
// timeouts, each resending the last overflow as a burst, and — for the proxy
// schemes — a split-RTT pipeline whose only residual cost is trimmed-header
// churn at the sending-DC ToR. The calibrated constants below were fitted to
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

	"incastproxy/internal/netsim"
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
	// multiple window rounds; late window growth costs a straggler
	// timeout on the long loop.
	RegimeSustained
	// RegimeOverflow: the burst overflows the buffer; the baseline pays an
	// initial RTO plus one RTO per resent burst that overflows in turn.
	RegimeOverflow
	// RegimeProxy: the epoch is relayed through an in-DC proxy; losses (if
	// any) are repaired over the short intra-DC loop, leaving trimmed-header
	// churn (streamlined) as the only penalty on top of the split-RTT
	// pipeline. The naive relay's up-legs lose nothing.
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

// Params parameterizes one incast epoch for the analytical model. FromSpec
// builds it from a workload.Spec, reading every field off the spec and its
// fabric; Predict fills in nothing.
type Params struct {
	// Scheme selects the closed form (SchemeAdaptive is not modeled:
	// its controller re-steers mid-epoch; use Compare for its two
	// candidate outcomes).
	Scheme workload.Scheme
	// Degree is the sender fan-in; TotalBytes the epoch's aggregate size
	// (split equally among senders, as the workload does).
	Degree     int
	TotalBytes units.ByteSize

	// DirectRTT is the sender<->receiver round-trip of the direct path, and
	// of the relay's down leg, which rides the same long-haul path;
	// ProxyUpRTT the sender<->proxy round-trip.
	DirectRTT  units.Duration
	ProxyUpRTT units.Duration

	// Rate is the uniform link rate (the bottleneck drain rate); Buffer
	// the down-ToR queue capacity at both candidate congestion points, and
	// Mark the occupancy past which that queue ECN-marks every packet (0:
	// it marks nothing).
	Rate   units.BitRate
	Buffer units.ByteSize
	Mark   units.ByteSize
	// FanIn caps the burst's concurrent arrival multiplier: however many
	// senders transmit, at most FanIn uplinks feed the bottleneck leaf
	// (the spine count).
	FanIn int

	// IWScale is the initial window in BDP multiples (0 means 1), as
	// transport.ConfigFor reads it.
	IWScale float64

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
	// + Stall. Prop is one-way path propagation; Serve the serialization at
	// the bottleneck that nothing else hides (in the overflow regime only the
	// bytes past the first burst: the burst itself lands during the stall);
	// Churn the time spent repairing loss — the go-back-N timeouts after the
	// first on the direct path, and the last resent burst's serialization;
	// trimmed-header slots on the streamlined one; Stall the timeout waits
	// (the initial RTO, or a regime's straggler penalty).
	Prop, Serve, Churn, Stall units.Duration
	// Trims estimates the headers the proxy down-ToR trims (streamlined
	// only): Churn counted in netsim.ControlSize serialization slots.
	Trims uint64
	// Timeouts counts the retransmission timeouts the overflow regime
	// prices: every flow's, in every round.
	Timeouts uint64
}

// epoch is the sum of the terms: the ICT less IncastDelay.
func (pr Prediction) epoch() units.Duration {
	return pr.Prop + pr.Serve + pr.Churn + pr.Stall
}

// Calibrated constants. Each was fitted to the packet-level simulator on
// the Figure 2 (Left/Right) and Figure 3 grids; the validation tests assert
// the residual error bounds.
const (
	// sustainedDirectRTOs is the direct path's sustained-regime straggler
	// penalty in transport.DefaultMinRTO units: late window growth
	// overshoots the buffer and one-and-a-half timeout cycles repair it.
	sustainedDirectRTOs = 1.5
	// sustainedProxyRTOs is the streamlined path's equivalent: the short
	// NACK loop repairs most of it, leaving three quarters of a timeout.
	sustainedProxyRTOs = 0.75
)

// Predict evaluates the closed-form model for one scheme. It never runs the
// simulator; a call costs well under a microsecond (BenchmarkPredictFCT).
// SchemeAdaptive is not modeled — Predict treats it as the streamlined
// proxy outcome; use Compare to see both candidate paths the adaptive
// controller chooses between. Params with no bytes or no senders predict
// zero.
func Predict(p Params) Prediction {
	if p.TotalBytes <= 0 || p.Degree < 1 {
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

// predictDirect models the baseline: every byte crosses the long-haul path,
// and first-burst overflow is repaired by go-back-N timeouts over it.
func predictDirect(p Params) Prediction {
	rtt := p.DirectRTT
	oneway := rtt / 2
	serve := p.Rate.TransmitTime(p.TotalBytes)
	cfg := transport.ConfigFor(transport.Path{RTT: rtt, Rate: p.Rate, FanIn: p.Degree, IWScale: p.IWScale})
	burst := p.burstBytes(cfg.InitWindow)
	over := p.overflowBytes(burst)

	pred := Prediction{Regime: RegimeNoLoss, Prop: oneway}
	if over <= 0 {
		pred.Serve = serve
		if p.Degree >= 2 && p.TotalBytes > burst {
			// Sustained: multi-round window growth eventually overshoots
			// the buffer; the straggler repairs it over the long loop.
			pred.Regime = RegimeSustained
			pred.Stall = units.Duration(sustainedDirectRTOs * float64(transport.DefaultMinRTO))
		}
		pred.P99 = pred.epoch()
		pred.P50 = pred.P99 - pred.Stall/2
		return finishPrediction(pred, p)
	}

	// Overflow: the whole burst transmission overlaps the initial-RTO wait
	// (InitRTO exceeds the burst's serialization by construction), and the
	// flows time out together at the InitRTO transport.ConfigFor gives the
	// simulated senders. Each flushes its share of the overflow and resends
	// it as one burst at the initial window, which overflows in turn
	// (overflowBytes of it) until one fits. Every further timeout comes one
	// RTO after the last, and the burst that fits lands one-way plus its
	// serialization after its timeout.
	pred.Regime = RegimeOverflow
	pred.LossBytes = over
	last, rounds := over, 1
	for next := p.overflowBytes(last); next > 0; next = p.overflowBytes(last) {
		last, rounds = next, rounds+1
	}
	// The RTO is srtt + G (rttvar has settled below G/4). The samples that
	// set srtt are the first burst's last: a packet's send time is stamped
	// as it enters the NIC, so it waits behind its own flow's burst there
	// and then behind a full receiver-ToR buffer.
	srtt := rtt + p.Rate.TransmitTime(burst/units.ByteSize(p.Degree)+p.Buffer)
	rto := srtt + transport.DefaultMinRTO
	// Bytes beyond the first burst ride later window rounds and cannot
	// overlap the stall (zero on the 1 ms-latency grids, where IW covers
	// each share).
	var tail units.ByteSize
	if p.TotalBytes > burst {
		tail = p.TotalBytes - burst
	}
	pred.Stall = cfg.InitRTO
	pred.Churn = units.Duration(rounds-1)*rto + p.Rate.TransmitTime(last)
	pred.Serve = p.Rate.TransmitTime(tail)
	pred.Timeouts = uint64(rounds * p.Degree)
	pred.P99 = pred.epoch()
	pred.P50 = pred.P99
	return finishPrediction(pred, p)
}

// predictProxied models the relayed schemes: the transfer pipelines through
// the split RTT (up-leg one-way + serialization + down-leg one-way), and
// losses are repaired over the short intra-DC loop.
func predictProxied(p Params) Prediction {
	rttUp := p.ProxyUpRTT
	rttDown := p.DirectRTT
	pathRTT := rttUp + rttDown
	// Cross traffic shares the proxy down-ToR, but its short-RTT flows back
	// off from the incast burst's marks long before the incast's windows
	// answer, so the incast waits only behind the queue they keep, which
	// DCTCP holds below Mark; unmarked, it waits behind all they have left.
	cross := p.CrossBytes - p.Rate.BytesIn(p.IncastDelay)
	if p.Mark > 0 {
		cross = min(cross, p.Mark)
	}
	if cross < 0 {
		cross = 0
	}
	serveBytes := p.TotalBytes + cross
	serve := p.Rate.TransmitTime(serveBytes)
	iw := transport.ConfigFor(transport.Path{RTT: pathRTT, Rate: p.Rate, IWScale: p.IWScale}).InitWindow
	burst := p.burstBytes(iw)
	over := p.overflowBytes(burst)

	pred := Prediction{Regime: RegimeProxy, Prop: rttUp/2 + rttDown/2, Serve: serve}

	switch p.Scheme {
	case workload.ProxyNaive:
		// The up-legs lose nothing, so their windows only grow by what they
		// ack and cut by alpha/2: multiplicative increase and decrease keeps
		// whatever unequal shares the flows reach. The median flow is taken
		// halfway between all finishing together (p99) and one after
		// another ((Degree+1)/(2·Degree) of the serve).
		pred.P99 = pred.epoch()
		inTurn := float64(p.Degree+1) / float64(2*p.Degree)
		pred.P50 = pred.P99 - units.Duration((1-inTurn)/2*float64(pred.Serve))

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
		alpha := float64(p.effFanIn()-1) * float64(netsim.ControlSize) / float64(transport.DefaultMSS)
		if alpha > 0.9 {
			alpha = 0.9
		}
		// Sustained multi-round growth (no first-burst overflow) trims
		// later rounds; the short NACK loop repairs them, but once a share
		// needs several window doublings past its initial window the
		// late rounds overshoot hard enough to cost a straggler timeout.
		sustained := over <= 0 && p.Degree >= 2 && p.TotalBytes > burst
		if over > 0 || sustained {
			pred.Churn = units.Duration(alpha / (1 - alpha) * float64(p.Rate.TransmitTime(backlog)))
			pred.Trims = uint64(alpha / (1 - alpha) * float64(backlog) / float64(netsim.ControlSize))
		}
		if over > 0 {
			pred.LossBytes = over
		} else if sustained && p.TotalBytes/units.ByteSize(p.Degree) > 4*iw {
			pred.Stall = units.Duration(sustainedProxyRTOs * float64(transport.DefaultMinRTO))
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
