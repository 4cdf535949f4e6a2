package transport

// Telemetry is the shared observability sink for the senders of one run:
// an RTT histogram in the metrics registry plus (optionally) a flow-event
// tracer. One Telemetry serves every flow — per-flow series are separated
// on the tracer's tracks, aggregate distributions share the histogram.
//
// A nil *Telemetry (and a Telemetry holding nil instruments) records
// nothing; senders call through unconditionally.

import (
	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// Telemetry carries the instruments a Sender records into.
type Telemetry struct {
	// RTT accumulates smoothed-RTT input samples, in microseconds.
	RTT *obs.Histogram
	// FCT accumulates flow completion times, in microseconds.
	FCT *obs.Histogram
	// Trace receives flow lifecycle events and cwnd/alpha trajectories.
	Trace *obs.Tracer
}

// NewTelemetry registers the transport histograms on reg (nil-safe) and
// binds the tracer (which may be nil to disable event recording).
func NewTelemetry(reg *obs.Registry, tr *obs.Tracer) *Telemetry {
	return &Telemetry{
		RTT:   reg.Histogram("transport_rtt_us", obs.DefaultDurationBucketsMicros()),
		FCT:   reg.Histogram("transport_fct_us", obs.DefaultDurationBucketsMicros()),
		Trace: tr,
	}
}

func (t *Telemetry) observeRTT(d units.Duration) {
	if t != nil {
		t.RTT.Observe(int64(d) / int64(units.Microsecond))
	}
}

func (t *Telemetry) observeFCT(d units.Duration) {
	if t != nil {
		t.FCT.Observe(int64(d) / int64(units.Microsecond))
	}
}

func (t *Telemetry) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.Trace
}

// InstrumentSenders exports the summed SenderStats of a (growing) slice of
// senders through one registry collector. The slice pointer is captured, so
// senders appended after registration are included in later snapshots. A
// snapshot walks the senders once, for all seven.
func InstrumentSenders(reg *obs.Registry, senders *[]*Sender) {
	if reg == nil {
		return
	}
	reg.Collect(func(c *obs.Collector) {
		var t SenderStats
		for _, s := range *senders {
			t.add(&s.Stats)
		}
		c.Counter("transport_pkts_sent_total", t.PktsSent)
		c.Counter("transport_retransmits_total", t.Retransmits)
		c.Counter("transport_timeouts_total", t.Timeouts)
		c.Counter("transport_nacks_total", t.Nacks)
		c.Counter("transport_marked_acks_total", t.MarkedAcks)
		c.Counter("transport_unmarked_acks_total", t.UnmarkedAcks)
		c.Counter("transport_decreases_total", t.Decreases)
	})
}

// InstrumentReceivers exports the summed ReceiverStats of a (growing) slice
// of receivers through one registry collector, walking them once per
// snapshot.
func InstrumentReceivers(reg *obs.Registry, receivers *[]*Receiver) {
	if reg == nil {
		return
	}
	reg.Collect(func(c *obs.Collector) {
		var t ReceiverStats
		for _, r := range *receivers {
			t.add(&r.Stats)
		}
		c.Counter("transport_pkts_received_total", t.PktsReceived)
		c.Counter("transport_duplicates_total", t.Duplicates)
		c.Counter("transport_trimmed_seen_total", t.TrimmedSeen)
		c.Counter("transport_acks_sent_total", t.AcksSent)
		c.Counter("transport_nacks_sent_total", t.NacksSent)
	})
}
