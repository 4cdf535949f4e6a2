package control

import (
	"fmt"
	"sync"

	"incastproxy/internal/units"
)

// PathEstimator tracks the quality of one candidate path (the direct WAN
// path, or via one proxy) from whatever samples are available: probe RTTs,
// probe loss, and relay admission verdicts. Smoothing is per-sample (fixed
// gain) rather than per-virtual-time, so the same type serves both the
// simulator (probe packets on virtual time) and relay.Client (real
// health-probe dials on the wall clock) — the estimator itself never reads
// any clock.
//
// All methods are safe for concurrent use: the relay's health loop runs on
// its own goroutine.
type PathEstimator struct {
	mu   sync.Mutex
	name string
	gain float64

	rttEwma  float64 // seconds
	rttMin   float64 // best RTT seen: the uncongested baseline
	rttN     uint64
	lossEwma float64 // per-probe loss indicator EWMA in [0,1]
	sent     uint64
	lost     uint64
	busyEwma float64 // per-dial admission-shed indicator EWMA in [0,1]
	dials    uint64
	sheds    uint64
}

// DefaultEstimatorGain is the per-sample EWMA gain.
const DefaultEstimatorGain = 0.2

// NewPathEstimator returns an estimator for the named path. gain in (0,1]
// sets the per-sample smoothing; 0 uses DefaultEstimatorGain.
func NewPathEstimator(name string, gain float64) *PathEstimator {
	if gain <= 0 || gain > 1 {
		gain = DefaultEstimatorGain
	}
	return &PathEstimator{name: name, gain: gain}
}

// Name returns the path label.
func (p *PathEstimator) Name() string { return p.name }

// ObserveRTT folds in one round-trip sample (a probe echo or a health-probe
// dial). Non-positive samples are ignored.
func (p *PathEstimator) ObserveRTT(rtt units.Duration) {
	if p == nil || rtt <= 0 {
		return
	}
	s := rtt.Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rttN == 0 {
		p.rttEwma, p.rttMin = s, s
	} else {
		p.rttEwma += p.gain * (s - p.rttEwma)
		if s < p.rttMin {
			p.rttMin = s
		}
	}
	p.rttN++
}

// ObserveLoss records one probe outcome (lost or answered).
func (p *PathEstimator) ObserveLoss(lostProbe bool) {
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
	if p.sent == 1 {
		p.lossEwma = v
	} else {
		p.lossEwma += p.gain * (v - p.lossEwma)
	}
}

// ObserveBusy records one relay admission verdict: shed (an explicit
// BUSY/GOING_AWAY answer) or admitted. It is a distinct signal from probe
// loss — a shedding relay is *alive*, just overloaded — so the breaker's
// view of relay overload reaches steering policies without being mistaken
// for an unreachable path. Paths that never see admission verdicts (the
// simulator's in-sim probers) keep a zero busy rate.
func (p *PathEstimator) ObserveBusy(shed bool) {
	if p == nil {
		return
	}
	v := 0.0
	if shed {
		v = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dials++
	if shed {
		p.sheds++
	}
	if p.dials == 1 {
		p.busyEwma = v
	} else {
		p.busyEwma += p.gain * (v - p.busyEwma)
	}
}

// RTT returns the smoothed round-trip estimate (0 before any sample).
func (p *PathEstimator) RTT() units.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return units.Duration(p.rttEwma * float64(units.Second))
}

// MinRTT returns the best RTT seen — the path's uncongested baseline.
func (p *PathEstimator) MinRTT() units.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return units.Duration(p.rttMin * float64(units.Second))
}

// Excess returns smoothed RTT minus the baseline: the queueing delay the
// path is currently inflicting. Comparable across paths with very different
// propagation delays (intra-DC proxy hop vs the 4 ms WAN loop), which raw
// RTT is not.
func (p *PathEstimator) Excess() units.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rttN == 0 {
		return 0
	}
	ex := p.rttEwma - p.rttMin
	if ex < 0 {
		ex = 0
	}
	return units.Duration(ex * float64(units.Second))
}

// LossRate returns the smoothed probe loss fraction in [0,1].
func (p *PathEstimator) LossRate() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lossEwma
}

// RTTSamples returns how many RTT samples have been observed.
func (p *PathEstimator) RTTSamples() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rttN
}

// BusyRate returns the smoothed admission-shed fraction in [0,1]: how often
// recent relay dials were answered BUSY/GOING_AWAY.
func (p *PathEstimator) BusyRate() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busyEwma
}

// Admissions returns (dials, sheds) admission-verdict counts.
func (p *PathEstimator) Admissions() (dials, sheds uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials, p.sheds
}

// Probes returns (sent, lost) probe counts.
func (p *PathEstimator) Probes() (sent, lost uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent, p.lost
}

// Healthy reports whether the path's smoothed probe loss is below maxLoss.
// A path with no probe history is presumed healthy (innocent until probed).
func (p *PathEstimator) Healthy(maxLoss float64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent == 0 || p.lossEwma < maxLoss
}

func (p *PathEstimator) String() string {
	if p == nil {
		return "<nil path>"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("%s{rtt=%v min=%v loss=%.2f n=%d}",
		p.name,
		units.Duration(p.rttEwma*float64(units.Second)),
		units.Duration(p.rttMin*float64(units.Second)),
		p.lossEwma, p.rttN)
}
