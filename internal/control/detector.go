package control

import (
	"fmt"

	"incastproxy/internal/units"
)

// Phase is the detector's hysteresis state.
type Phase int

// The two phases.
const (
	// Quiet: no incast in progress on the watched queue.
	Quiet Phase = iota
	// Incast: congestion onset declared, decay not yet reached.
	Incast
)

func (p Phase) String() string {
	switch p {
	case Quiet:
		return "quiet"
	case Incast:
		return "incast"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// DetectorConfig holds the onset/decay hysteresis thresholds. Onset uses
// the fast signal (instantaneous depth); decay uses the smoothed depth EWMA
// with a strictly lower threshold plus a minimum dwell, so the detector
// cannot chatter at a boundary.
type DetectorConfig struct {
	// OnsetDepth declares onset when the instantaneous queue depth
	// reaches it.
	OnsetDepth units.ByteSize
	// DecayDepth declares decay when the depth EWMA falls to it or below
	// (must be < OnsetDepth for hysteresis).
	DecayDepth units.ByteSize
	// MinDwell is the minimum time in a phase before the opposite
	// transition is allowed.
	MinDwell units.Duration
}

// Detector is the online incast onset/decay detector for one queue signal.
type Detector struct {
	cfg   DetectorConfig
	phase Phase
	since units.Time

	onsets  uint64
	decays  uint64
	onsetAt units.Time
}

// NewDetector builds a detector in the Quiet phase.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg}
}

// Step evaluates the signal at virtual time now and returns true when the
// phase changed this step.
func (d *Detector) Step(now units.Time, sig *QueueSignal) bool {
	if now.Sub(d.since) < d.cfg.MinDwell {
		return false
	}
	switch d.phase {
	case Quiet:
		if sig.raw >= d.cfg.OnsetDepth {
			d.phase = Incast
			d.since = now
			d.onsetAt = now
			d.onsets++
			return true
		}
	case Incast:
		if sig.Depth.Value() <= float64(d.cfg.DecayDepth) && sig.raw < d.cfg.OnsetDepth {
			d.phase = Quiet
			d.since = now
			d.decays++
			return true
		}
	}
	return false
}

// ForceOnset moves the detector into the Incast phase at now regardless of
// the signal — used when an out-of-band notification (a Pulser-style flow
// registration burst) declares the incast before the queue shows it.
func (d *Detector) ForceOnset(now units.Time) bool {
	if d.phase == Incast {
		return false
	}
	d.phase = Incast
	d.since = now
	d.onsetAt = now
	d.onsets++
	return true
}

// Phase returns the current phase.
func (d *Detector) Phase() Phase { return d.phase }

// OnsetAt returns when the current (or last) Incast phase began.
func (d *Detector) OnsetAt() units.Time { return d.onsetAt }

// Onsets and Decays count phase transitions so far.
func (d *Detector) Onsets() uint64 { return d.onsets }

// Decays counts Incast→Quiet transitions so far.
func (d *Detector) Decays() uint64 { return d.decays }
