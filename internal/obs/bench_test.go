package obs

import (
	"testing"
)

// The instruments sit on simulator hot paths (per-packet in the worst
// case); these benches put numbers on the per-record cost the ≤5% overhead
// budget in ISSUE/DESIGN rests on.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_depth")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_us", DefaultDurationBucketsMicros())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 1_000_000))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTracerInstant(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(0, "flow", "nack", int64(i))
	}
}

func BenchmarkTracerInstantNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(0, "flow", "nack", int64(i))
	}
}

// BenchmarkSpanEmit is the enabled-path cost of one full span (root begin
// + end, including ID derivation and the trace/span args) — what a traced
// relay pays per connection, not per byte.
func BenchmarkSpanEmit(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot(0, "client", "client.dial", NewSpanContext(int64(i), 1))
		sp.End(0)
	}
}

// BenchmarkSpanEmitNil is the disabled-path cost: a nil tracer must make
// span instrumentation free (0 allocs) so the relay hot path is unchanged
// when tracing is off.
func BenchmarkSpanEmitNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot(0, "client", "client.dial", SpanContext{Trace: 1, Span: 1})
		sp.End(0)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(string(rune('a'+i%26)) + "_total").Add(uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
