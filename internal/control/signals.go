package control

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/units"
)

// QueueSignal is the per-queue signal tap: sampled on the controller's tick,
// it keeps the queue's instantaneous depth, its cumulative drop count, and
// the smoothed rate of ECN marks.
type QueueSignal struct {
	Name string

	port *netsim.Port

	MarkRate *Rate // ECN marks/sec

	raw   units.ByteSize
	drops uint64
}

// WatchPort builds a signal tap over one port's egress queue; HalfLife sets
// the smoothing of the mark rate.
func WatchPort(name string, p *netsim.Port) *QueueSignal {
	return &QueueSignal{
		Name:     name,
		port:     p,
		MarkRate: NewRate(HalfLife),
	}
}

// Sample reads the port's counters at virtual time now and folds them into
// the signal.
func (q *QueueSignal) Sample(now units.Time) {
	st := q.port.Stats()
	q.raw = q.port.QueuedBytes()
	q.drops = st.Dropped
	q.MarkRate.Observe(now, st.Marked)
}

// RawDepth returns the queue occupancy at the last sample.
func (q *QueueSignal) RawDepth() units.ByteSize { return q.raw }

// Drops returns the cumulative drop count at the last sample.
func (q *QueueSignal) Drops() uint64 { return q.drops }

// Congested reports whether the queue looks congested against the given
// thresholds: instantaneous depth at or above onsetDepth, or a smoothed mark
// rate at or above markRate (the controller's proxy-busy check: ECN-governed
// cross traffic keeps the queue shallow but marks steadily).
func (q *QueueSignal) Congested(onsetDepth units.ByteSize, markRate float64) bool {
	if onsetDepth > 0 && q.raw >= onsetDepth {
		return true
	}
	return markRate > 0 && q.MarkRate.Value() >= markRate
}
