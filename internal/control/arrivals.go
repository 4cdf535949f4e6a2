package control

import (
	"incastproxy/internal/units"
)

// IncastDetectorConfig parameterizes destination-side incast detection from
// flow arrivals (the research agenda's "pattern-aware rerouting").
type IncastDetectorConfig struct {
	// Window is the sliding window over which concurrent senders are
	// counted (default 1 ms).
	Window units.Duration
	// DegreeThreshold is the sender count above which the pattern is
	// declared an incast (default 4).
	DegreeThreshold int
	// MinBytes filters out trivial bursts (default 1 MB aggregate in
	// the window) — Figure 2 (Right) shows small incasts gain nothing
	// from a proxy.
	MinBytes units.ByteSize
}

func (c IncastDetectorConfig) withDefaults() IncastDetectorConfig {
	if c.Window <= 0 {
		c.Window = units.Millisecond
	}
	if c.DegreeThreshold <= 0 {
		c.DegreeThreshold = 4
	}
	if c.MinBytes <= 0 {
		c.MinBytes = units.MB
	}
	return c
}

type flowStart struct {
	at     units.Time
	sender uint64
	bytes  units.ByteSize
}

type dstState struct {
	recent []flowStart
	// onsets records when incasts were first detected, for periodicity
	// estimation.
	onsets []units.Time
	active bool
}

// IncastDetector watches flow arrivals per destination and (a) flags
// forming incasts and (b) predicts the next onset of periodic incasts
// (§6: "some applications exhibit periodic behavior, providing an
// opportunity to predict when an incast is about to occur"). It is the
// flow-registration signal next to the queue signal, the kind of
// out-of-band notice the controller's announced-overflow rule reads
// (Controller.FlowStarted).
type IncastDetector struct {
	cfg  IncastDetectorConfig
	dsts map[uint64]*dstState
}

// NewIncastDetector returns a detector.
func NewIncastDetector(cfg IncastDetectorConfig) *IncastDetector {
	return &IncastDetector{cfg: cfg.withDefaults(), dsts: make(map[uint64]*dstState)}
}

// ObserveFlowStart records that sender started a flow of the given size
// toward dst. It returns true when this observation crosses the incast
// detection threshold (the first detection of a burst, not every packet).
func (d *IncastDetector) ObserveFlowStart(dst, sender uint64, bytes units.ByteSize, now units.Time) bool {
	st := d.dsts[dst]
	if st == nil {
		st = &dstState{}
		d.dsts[dst] = st
	}
	st.recent = append(st.recent, flowStart{at: now, sender: sender, bytes: bytes})
	d.trim(st, now)

	deg, agg := d.windowStats(st)
	isIncast := deg >= d.cfg.DegreeThreshold && agg >= d.cfg.MinBytes
	if isIncast && !st.active {
		st.active = true
		st.onsets = append(st.onsets, now)
		return true
	}
	if !isIncast {
		st.active = false
	}
	return false
}

// Degree returns the number of distinct senders toward dst within the
// current window.
func (d *IncastDetector) Degree(dst uint64, now units.Time) int {
	st := d.dsts[dst]
	if st == nil {
		return 0
	}
	d.trim(st, now)
	deg, _ := d.windowStats(st)
	return deg
}

// PredictNextOnset estimates when the next incast toward dst begins, from
// the mean inter-onset period of past detections. It needs at least three
// onsets to commit to a period.
func (d *IncastDetector) PredictNextOnset(dst uint64) (units.Time, bool) {
	st := d.dsts[dst]
	if st == nil || len(st.onsets) < 3 {
		return 0, false
	}
	first, last := st.onsets[0], st.onsets[len(st.onsets)-1]
	period := units.Duration(int64(last.Sub(first)) / int64(len(st.onsets)-1))
	if period <= 0 {
		return 0, false
	}
	return last.Add(period), true
}

// Onsets returns the recorded incast onset times for dst.
func (d *IncastDetector) Onsets(dst uint64) []units.Time {
	st := d.dsts[dst]
	if st == nil {
		return nil
	}
	return append([]units.Time(nil), st.onsets...)
}

func (d *IncastDetector) trim(st *dstState, now units.Time) {
	cut := 0
	for cut < len(st.recent) && now.Sub(st.recent[cut].at) > d.cfg.Window {
		cut++
	}
	st.recent = st.recent[cut:]
}

func (d *IncastDetector) windowStats(st *dstState) (degree int, agg units.ByteSize) {
	senders := make(map[uint64]bool, len(st.recent))
	for _, f := range st.recent {
		senders[f.sender] = true
		agg += f.bytes
	}
	return len(senders), agg
}
