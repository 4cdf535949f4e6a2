// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package control is the adaptive proxy control plane: it watches the
// telemetry the simulator already produces (queue depth, ECN mark and drop
// counters) and the flows' announcements, latches the epoch's incast onset
// online, tracks the proxy's liveness from probes, and runs a policy engine
// that can re-steer an in-flight incast epoch between the direct WAN path
// and a proxy ("the shortest path is not necessarily the fastest" — but
// which path is fastest changes over time).
//
// Everything here advances on simulator virtual time: signals are EWMAs over
// units.Time, probes are engine events, and randomness comes from seeds
// derived with rng.DeriveSeed, so adaptive runs stay byte-identical between
// serial and parallel execution. The package deliberately knows nothing
// about workloads — callers wire signals in and act on the controller's steer
// callbacks — which keeps the dependency arrow pointing one way (workload
// imports control, never the reverse).
package control

import (
	"math"

	"incastproxy/internal/units"
)

// EWMA is an exponentially weighted moving average over irregularly spaced
// virtual-time samples. The half-life parameterization makes the smoothing
// independent of the sample period: a sample dt old carries weight
// 2^(-dt/halfLife), so observations one half-life apart count half as much.
type EWMA struct {
	halfLife units.Duration
	value    float64
	last     units.Time
	primed   bool
}

// NewEWMA returns an EWMA with the given half-life (must be positive).
func NewEWMA(halfLife units.Duration) *EWMA {
	if halfLife <= 0 {
		panic("control: EWMA half-life must be positive")
	}
	return &EWMA{halfLife: halfLife}
}

// Observe folds one sample taken at virtual time now into the average.
// Samples at the same instant blend with weight 1/2 (a FIFO same-instant
// tie-break, mirroring the engine's event ordering).
func (m *EWMA) Observe(now units.Time, v float64) {
	if !m.primed {
		m.value, m.last, m.primed = v, now, true
		return
	}
	dt := now.Sub(m.last)
	w := 0.5
	if dt > 0 {
		w = 1 - math.Exp2(-float64(dt)/float64(m.halfLife))
		m.last = now
	}
	m.value += w * (v - m.value)
}

// Value returns the current average (0 before the first sample).
func (m *EWMA) Value() float64 { return m.value }

// Rate turns a monotonically increasing event counter into a smoothed
// events-per-second estimate over virtual time. Feed it the counter's
// current value at each sample instant.
type Rate struct {
	ewma      EWMA
	lastCount uint64
	lastT     units.Time
	primed    bool
}

// NewRate returns a rate estimator smoothing over the given half-life.
func NewRate(halfLife units.Duration) *Rate {
	return &Rate{ewma: *NewEWMA(halfLife)}
}

// Observe records the counter's value at virtual time now and returns the
// smoothed per-second rate.
func (r *Rate) Observe(now units.Time, count uint64) float64 {
	if !r.primed {
		r.lastCount, r.lastT, r.primed = count, now, true
		return 0
	}
	dt := now.Sub(r.lastT)
	if dt <= 0 {
		return r.ewma.Value()
	}
	var delta uint64
	if count > r.lastCount {
		delta = count - r.lastCount
	}
	r.lastCount, r.lastT = count, now
	r.ewma.Observe(now, float64(delta)/dt.Seconds())
	return r.ewma.Value()
}

// Value returns the smoothed rate without adding a sample.
func (r *Rate) Value() float64 { return r.ewma.Value() }
