package control

import (
	"fmt"
	"sync"

	"incastproxy/internal/units"
)

// PathEstimator tracks the quality of one candidate path (the direct WAN
// path, or via one proxy) from probe RTTs and probe loss. Smoothing is
// per-sample (fixed gain) rather than per-virtual-time, so the estimator
// itself never reads any clock.
//
// All methods are safe for concurrent use.
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

// ObserveRTT folds in one round-trip sample (a probe echo). Non-positive
// samples are ignored.
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
