// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package transport implements the DCTCP-like transport of §4.1: a
// window-based sender that resets its congestion window on timeout,
// decreases it on ECN-marked ACKs or NACKs, and increases it on unmarked
// ACKs, with the initial window set to one bandwidth-delay product
// (following Homa). Acknowledgements are per data packet, which keeps the
// protocol correct under the fabric's packet spraying.
package transport

import "incastproxy/internal/units"

// Config is one flow's timing and control law, as ConfigFor derives it from
// the flow's path. A sender floors InitRTO at DefaultMinRTO; every other
// field is used as given.
type Config struct {
	// InitWindow is the initial congestion window in bytes. The §4.1
	// setting is 1 BDP of the flow's path.
	InitWindow units.ByteSize
	// ExpectedRTT seeds RTT-dependent machinery (alpha update cadence,
	// decrease rate-limiting) before the first RTT sample arrives.
	ExpectedRTT units.Duration
	// InitRTO is the retransmission timeout before any RTT sample.
	InitRTO units.Duration

	// GeminiMode enables the Gemini-like cross-datacenter variant the
	// paper's related work discusses: the ECN-triggered multiplicative
	// decrease is scaled down for long-RTT flows
	// (beta = alpha/2 * min(1, rttRef/RTT)), avoiding link
	// under-utilization over long-haul paths — but, as the paper notes,
	// doing nothing about first-RTT overload.
	GeminiMode bool
}

// Transport constants, the same for every flow. The 1 ms RTO floor mirrors
// practical datacenter minRTO tuning (and htsim's default): a lower floor
// makes normal ToR queue oscillation fire spurious timeouts.
const (
	// DefaultMSS is the wire size of a full data packet. It is also the
	// window's floor; a timeout resets the window to InitWindow.
	DefaultMSS units.ByteSize = 1500
	// DefaultMinRTO floors every retransmission timeout; exported so the
	// analytical model (internal/model) prices timeout stalls with the
	// same floor the simulated senders pay.
	DefaultMinRTO = units.Millisecond
	// defaultMaxRTO caps exponential backoff.
	defaultMaxRTO = 5 * units.Second
	// InitAlpha is DCTCP's alpha before the first RTT (1: the first mark
	// halves the window), Gain its EWMA gain g; internal/model replays both.
	InitAlpha, Gain = 1.0, 1.0 / 16
	// rttRef is Gemini's intra-datacenter reference RTT.
	rttRef = 100 * units.Microsecond
)

// Path is what sizes a connection's timing: the path it crosses and the
// cohort it crosses it with.
type Path struct {
	// RTT is the path's unloaded round trip.
	RTT units.Duration
	// Rate is the path's bottleneck link rate, zero when it crosses no link.
	Rate units.BitRate
	// FanIn counts the flows converging on the path's hottest hop.
	FanIn int
	// IWScale, when positive, scales the 1-BDP initial window.
	IWScale float64
	// IWCap, when positive, caps the initial window.
	IWCap units.ByteSize
}

// ConfigFor sizes one connection from its path, for the simulated senders
// and the analytical model alike. The initial window is 1 BDP (§4.1),
// scaled by IWScale, then capped by IWCap; it is never below one packet,
// so a path that crosses no link still sends. The first RTT a sender observes
// includes the queueing its own cohort inflicts: up to FanIn initial windows
// draining through one bottleneck link. The initial RTO must exceed that,
// or timers fire spuriously before the first RTT sample arrives.
func ConfigFor(p Path) Config {
	iw := p.Rate.BDP(p.RTT)
	if p.IWScale > 0 {
		iw = units.ByteSize(float64(iw) * p.IWScale)
	}
	if p.IWCap > 0 && iw > p.IWCap {
		iw = p.IWCap
	}
	iw = max(iw, DefaultMSS)
	rto := 3 * p.RTT
	if p.Rate > 0 {
		rto += p.Rate.TransmitTime(units.ByteSize(p.FanIn) * iw)
	}
	return Config{
		InitWindow:  iw,
		ExpectedRTT: p.RTT,
		InitRTO:     max(rto, DefaultMinRTO),
	}
}
