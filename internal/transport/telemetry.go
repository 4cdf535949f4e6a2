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
// senders as lazy registry collectors. The slice pointer is captured, so
// senders appended after registration are included in later snapshots. A
// snapshot walks the senders once, for all eight.
func InstrumentSenders(reg *obs.Registry, senders *[]*Sender) {
	if reg == nil {
		return
	}
	var t SenderStats
	reg.BeforeSnapshot(func() {
		t = SenderStats{}
		for _, s := range *senders {
			t.add(&s.Stats)
		}
	})
	reg.CounterFunc("transport_pkts_sent_total", func() uint64 { return t.PktsSent })
	reg.CounterFunc("transport_retransmits_total", func() uint64 { return t.Retransmits })
	reg.CounterFunc("transport_timeouts_total", func() uint64 { return t.Timeouts })
	reg.CounterFunc("transport_spurious_rto_total", func() uint64 { return t.SpuriousRTO })
	reg.CounterFunc("transport_nacks_total", func() uint64 { return t.Nacks })
	reg.CounterFunc("transport_marked_acks_total", func() uint64 { return t.MarkedAcks })
	reg.CounterFunc("transport_unmarked_acks_total", func() uint64 { return t.UnmarkedAcks })
	reg.CounterFunc("transport_decreases_total", func() uint64 { return t.Decreases })
}

// InstrumentReceivers exports the summed ReceiverStats of a (growing) slice
// of receivers as lazy registry collectors, walking them once per snapshot.
func InstrumentReceivers(reg *obs.Registry, receivers *[]*Receiver) {
	if reg == nil {
		return
	}
	var t ReceiverStats
	reg.BeforeSnapshot(func() {
		t = ReceiverStats{}
		for _, r := range *receivers {
			t.add(&r.Stats)
		}
	})
	reg.CounterFunc("transport_pkts_received_total", func() uint64 { return t.PktsReceived })
	reg.CounterFunc("transport_duplicates_total", func() uint64 { return t.Duplicates })
	reg.CounterFunc("transport_trimmed_seen_total", func() uint64 { return t.TrimmedSeen })
	reg.CounterFunc("transport_acks_sent_total", func() uint64 { return t.AcksSent })
	reg.CounterFunc("transport_nacks_sent_total", func() uint64 { return t.NacksSent })
}
