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
// churn at the sending-DC ToR. A long ECN loop whose burst fits pays the
// time its bottleneck idles while the windows recover from their alpha/2
// cuts, replayed with the senders' own law. Nothing is fitted to the
// simulator: the validation tests pin the error bounds per regime, and
// `figures -fig modelerr` prints the full sim-vs-model table.
//
// The model is deliberately coarse where the DES is exact (per-packet
// spraying, RED's random marks, per-flow stragglers); DESIGN.md §13
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
	// RegimeNoLoss: the first-RTT burst fits the receiver down-ToR buffer;
	// the epoch is one pipelined transmission, plus the bottleneck's idle
	// time if a long loop's windows under-run it after their cuts.
	RegimeNoLoss Regime = iota
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
	// P50/P99 summarize the per-flow FCT distribution (measured from the
	// epoch start, excluding IncastDelay, like the simulator's
	// receiver-side FCTs).
	P50, P99 units.Duration
	// Goodput is TotalBytes over the epoch duration.
	Goodput units.BitRate
	// LossBytes estimates the first-burst buffer overflow (dropped bytes
	// on the direct path, trimmed bytes on the streamlined proxy path).
	LossBytes units.ByteSize
	// Regime is the closed-form branch that produced the numbers.
	Regime Regime

	// Where the epoch's time goes: ICT = IncastDelay + Prop + Serve + Churn
	// + Stall + Idle. Prop is one-way path propagation; Serve the
	// serialization at the bottleneck that nothing else hides (in the
	// overflow regime only the bytes past the first burst: the burst itself
	// lands during the stall; on the relayed paths also the ACK header the
	// proxy's link carries beside each data packet); Churn the time spent
	// repairing loss — the go-back-N timeouts after the first on the direct
	// path, and the last resent burst's serialization; trimmed-header slots
	// on the streamlined one; Stall the initial RTO's wait; Idle the time the
	// bottleneck sits idle while a long ECN loop's windows recover from their
	// alpha/2 cuts.
	Prop, Serve, Churn, Stall, Idle units.Duration
	// Trims estimates the headers the proxy down-ToR trims (streamlined
	// only): Churn counted in netsim.ControlSize serialization slots.
	Trims uint64
	// Timeouts counts the retransmission timeouts the overflow regime
	// prices: every flow's, in every round.
	Timeouts uint64
}

// Predict evaluates the closed-form model for one scheme. It never runs the
// simulator; a call costs well under a microsecond (BenchmarkPredictFCT),
// but one that replays a long loop's under-run takes a step per window
// round, so its cost grows with TotalBytes over the BDP: ~160 ns at 100 MB
// over 100 us links (BenchmarkPredictUnderRun), ~95 us at 100 GB.
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
		pred.Idle = p.idle(rtt, burst, 1)
		// A loop inside DCTCP's K >= C·RTT/7 (Alizadeh et al., SIGCOMM 2010)
		// keeps its queue standing in the mark band, where marks are random.
		return finishPrediction(pred, p, p.TotalBytes > burst && p.Rate.BDP(rtt) <= 7*p.Mark)
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
	return finishPrediction(pred, p, false)
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
	// Each data packet shares the proxy's link with an ACK header: the naive
	// relay's own, sent back up its leg from the first packet on, or the
	// receiver's, relayed through the proxy once the first of them is back.
	acked := p.TotalBytes
	if p.Scheme != workload.ProxyNaive {
		acked -= p.Rate.BDP(pathRTT)
	}
	if acked > 0 {
		pred.Serve += p.Rate.TransmitTime(acked * netsim.ControlSize / transport.DefaultMSS)
	}
	if p.Scheme == workload.ProxyNaive {
		// The up-legs lose nothing, and their loop is shorter than the mark
		// band, so their windows never under-run the proxy's link.
		return finishPrediction(pred, p, true)
	}
	// Streamlined (and the inferring variant, which behaves like it with
	// sequence-gap detection standing in for trimming).
	if over <= 0 {
		share := float64(transport.DefaultMSS) / float64(transport.DefaultMSS+netsim.ControlSize)
		pred.Idle = p.idle(pathRTT, burst, share)
		return finishPrediction(pred, p, p.TotalBytes > burst && p.Rate.BDP(pathRTT) <= 7*p.Mark)
	}
	// Each trimmed header consumes one header-serialization slot at the
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
	pred.Churn = units.Duration(alpha / (1 - alpha) * float64(p.Rate.TransmitTime(backlog)))
	pred.Trims = uint64(alpha / (1 - alpha) * float64(backlog) / float64(netsim.ControlSize))
	pred.LossBytes = over
	return finishPrediction(pred, p, false)
}

// idle is the time the bottleneck sits idle while an end-to-end ECN loop of
// round trip rtt, whose first burst fits the buffer, recovers from its
// alpha/2 cuts; share is the part of the bottleneck's slots that carries
// data. It replays the loop round by round with the senders' law: a round
// sends the window; a fresh mark cuts it by alpha/2 once, after the round's
// unmarked ACKs have grown it; an unmarked round doubles it; alpha moves
// Gain of the way to the round's marked fraction. The bytes a round queues
// past the BDP are marked once the queue passes Mark: all of them while a
// queue stands after a cut, the part past Mark while one builds. A window
// below the BDP leaves the rest of its round idle; a cut one leaves twice
// that, since the sender first waits for its flight to drain to the new
// window. Zero when the transfer fits its first windows, a share is under
// a byte, or the BDP is within the mark band.
func (p Params) idle(rtt units.Duration, burst units.ByteSize, share float64) units.Duration {
	line := float64(p.Rate.BDP(rtt))
	bdp, mark := share*line, float64(p.Mark)
	if mark <= 0 || bdp <= mark || burst <= 0 || p.TotalBytes <= burst {
		return 0
	}
	fan := float64(p.effFanIn())
	w := float64(burst)
	// The first burst lands at fan line rates; a sender's first ACK comes
	// back unmarked and opens alpha's first RTT.
	queue, cut := w-share*w/fan, false
	alpha := (1 - transport.Gain) * transport.InitAlpha
	left, under := float64(p.TotalBytes), 0.0
	for left -= w; left > 0; left -= w {
		if w < bdp && cut {
			under += 2 * (bdp - w)
		} else if w < bdp {
			under += bdp - w
		}
		f := 0.0
		if queue > mark {
			f = 1
			if !cut {
				f = (queue - mark) / queue
			}
		}
		alpha = (1-transport.Gain)*alpha + transport.Gain*f
		if cut = f > 0; cut {
			w *= (2 - f) * (1 - alpha/2)
		} else {
			w *= 2
		}
		// A round arrives over an RTT, or at fan line rates if slower.
		queue = w - bdp*max(1, w/(fan*line))
	}
	return p.Rate.TransmitTime(units.ByteSize(under / share))
}

// finishPrediction fills the fields derived from the terms. Flows finish
// together unless spread: a transfer of several windows over a loop whose
// marks fall at random (the naive up-legs, or a loop whose queue stands)
// grows each window by what it acks and cuts it by alpha/2, and
// multiplicative increase and decrease keeps whatever unequal shares the
// flows reach, so the median flow is taken halfway between all finishing
// together (p99) and one after another ((Degree+1)/(2·Degree) of the serve).
func finishPrediction(pred Prediction, p Params, spread bool) Prediction {
	epoch := pred.Prop + pred.Serve + pred.Churn + pred.Stall + pred.Idle
	pred.ICT = p.IncastDelay + epoch
	pred.P50, pred.P99 = epoch, epoch
	if spread {
		inTurn := float64(p.Degree+1) / float64(2*p.Degree)
		pred.P50 = max(epoch-units.Duration((1-inTurn)/2*float64(pred.Serve)), epoch/2)
	}
	if epoch > 0 {
		pred.Goodput = units.BitRate(float64(p.TotalBytes.Bits()) / epoch.Seconds())
	}
	return pred
}
