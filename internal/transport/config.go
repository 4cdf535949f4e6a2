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

// Config parameterizes one flow's transport behaviour. ConfigFor derives it
// from the flow's path; zero fields take the defaults of withDefaults.
type Config struct {
	// MSS is the wire size of a full data packet. It is also the window's
	// floor and what a timeout resets the window to.
	MSS units.ByteSize
	// InitWindow is the initial congestion window in bytes. The §4.1
	// setting is 1 BDP of the flow's path.
	InitWindow units.ByteSize
	// ExpectedRTT seeds RTT-dependent machinery (alpha update cadence,
	// decrease rate-limiting) before the first RTT sample arrives.
	ExpectedRTT units.Duration
	// InitRTO is the retransmission timeout before any RTT sample
	// (default 3x ExpectedRTT).
	InitRTO units.Duration
	// MinRTO floors the timeout; with a proxy the short feedback loop
	// admits microsecond-level timeouts (§5).
	MinRTO units.Duration
	// MaxRTO caps exponential backoff.
	MaxRTO units.Duration

	// GeminiMode enables the Gemini-like cross-datacenter variant the
	// paper's related work discusses: the ECN-triggered multiplicative
	// decrease is scaled down for long-RTT flows
	// (beta = alpha/2 * min(1, rttRef/RTT)), avoiding link
	// under-utilization over long-haul paths — but, as the paper notes,
	// doing nothing about first-RTT overload.
	GeminiMode bool
}

// Default transport constants. The 1 ms RTO floor mirrors practical
// datacenter minRTO tuning (and htsim's default): a lower floor makes
// normal ToR queue oscillation fire spurious timeouts.
const (
	DefaultMSS units.ByteSize = 1500
	// DefaultMinRTO is the RTO floor of every Config ConfigFor returns;
	// exported so the analytical model (internal/model) prices timeout
	// stalls with the same floor the simulated senders pay.
	DefaultMinRTO = units.Millisecond
	defaultMaxRTO = 5 * units.Second
	// gain is the DCTCP alpha EWMA gain g.
	gain = 1.0 / 16
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
// scaled by IWScale, then capped by IWCap. The first RTT a sender observes
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
	rto := 3 * p.RTT
	if drain := units.ByteSize(p.FanIn) * iw; drain > 0 {
		rto += p.Rate.TransmitTime(drain)
	}
	return Config{
		MSS:         DefaultMSS,
		InitWindow:  iw,
		ExpectedRTT: p.RTT,
		InitRTO:     max(rto, DefaultMinRTO),
		MinRTO:      DefaultMinRTO,
		MaxRTO:      defaultMaxRTO,
	}
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = DefaultMSS
	}
	if c.InitWindow <= 0 {
		c.InitWindow = 10 * c.MSS
	}
	if c.ExpectedRTT <= 0 {
		c.ExpectedRTT = 100 * units.Microsecond
	}
	if c.InitRTO <= 0 {
		c.InitRTO = 3 * c.ExpectedRTT
	}
	if c.MinRTO <= 0 {
		c.MinRTO = DefaultMinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = defaultMaxRTO
	}
	if c.InitRTO < c.MinRTO {
		c.InitRTO = c.MinRTO
	}
	return c
}
