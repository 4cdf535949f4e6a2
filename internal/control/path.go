package control

import "sync"

// PathEstimator tracks one path's liveness from probe outcomes: a
// per-probe loss EWMA. Smoothing is per-sample (fixed gain) rather than
// per-virtual-time, so the estimator itself never reads any clock. The zero
// value is an estimator with no probe history.
//
// All methods are safe for concurrent use.
type PathEstimator struct {
	mu       sync.Mutex
	lossEwma float64 // per-probe loss indicator EWMA in [0,1]
	sent     uint64
	lost     uint64
}

// estimatorGain is the per-sample EWMA gain.
const estimatorGain = 0.2

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
	p.lossEwma += estimatorGain * (v - p.lossEwma)
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
// The EWMA starts at zero, so a path with no probe history is presumed
// healthy (innocent until probed), and one late probe moves it only by the
// gain: a single timeout does not read as a dead path.
func (p *PathEstimator) Healthy(maxLoss float64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lossEwma < maxLoss
}
