package obs

import (
	"runtime"
	"slices"
	"testing"
)

// Instrumented code records unconditionally, so a disabled instrument must
// cost nothing: every nil-receiver path makes no allocation, variadic args
// included.
func TestNilInstrumentsAllocateNothing(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		r  *Registry
		tr *Tracer
	)
	sc := SpanContext{Trace: 1, Span: 1}
	for _, p := range []struct {
		name string
		fn   func()
	}{
		{"Counter", func() { c.Add(1); c.Inc(); _ = c.Load() }},
		{"Gauge", func() { g.Add(1); g.Set(2); _ = g.Load() }},
		{"Histogram", func() { h.Observe(3); _, _ = h.Count(), h.Sum() }},
		{"Registry getters", func() {
			_, _ = r.Counter("c_total"), r.Gauge("g")
			_ = r.Histogram("h_us", DefaultDurationBucketsMicros())
		}},
		{"Registry.Collect", func() { r.Collect(func(*Collector) {}) }},
		{"Registry.Snapshot", func() { _ = r.Snapshot() }},
		{"Tracer string args", func() {
			tr.Begin(1, "flow", "flow 1", 1, Arg{Key: "outcome", Val: "ok"})
			tr.End(2, "flow", "flow 1", 1, Arg{Key: "outcome", Val: "ok"})
			tr.Instant(3, "queue", "trim", 1, Arg{Key: "port", Val: "a->b"})
			tr.Count(4, "transport", "cwnd flow 1", 1, 5)
		}},
		{"Tracer scalar args", func() {
			tr.Begin(1, "flow", "flow 1", 1, Int("bytes", 1000))
			tr.Instant(3, "flow", "rto", 1, Int("flushed", 4), Int("backoff", 1))
			tr.End(2, "flow", "flow 1", 1, Int("bytes", 1000))
		}},
		{"StartRoot+End", func() {
			sp := tr.StartRoot(0, "client", "client.dial", sc, Int("conn", 1))
			sp.Annotate(1, "client.shed")
			sp.End(2, Arg{Key: "outcome", Val: "ok"})
		}},
	} {
		runtime.GC()
		if allocs := testing.AllocsPerRun(100, p.fn); allocs != 0 {
			t.Errorf("%s on a nil receiver: %.0f allocations, want 0", p.name, allocs)
		}
	}
}

// A live tracer records into chunks it allocates once per 4,096 events: an
// event with string and integer args, past its chunk's allocation, makes
// none, and neither does interning a string the tracer has seen.
func TestTracerRecordsWithoutAllocating(t *testing.T) {
	tr := NewTracer()
	label := "dc1/t0->dc1/h3"
	record := func() {
		tr.Instant(1, "queue", "trim", 7, Arg{Key: "port", Val: label})
		tr.Instant(2, "flow", "nack", 7, Int("seq", 42))
		tr.Count(3, "transport", "cwnd flow 7", 7, 12.5)
	}
	record() // the first chunks and the string table
	runtime.GC()
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Errorf("recording three events: %.2f allocations, want 0", allocs)
	}
}

// BenchmarkSpanEmit's body, held to its budget: a root span's begin and end
// cost the *Span and nothing per event.
func TestSpanEmitAllocBudget(t *testing.T) {
	tr := NewTracer()
	i := int64(0)
	emit := func() {
		i++
		sp := tr.StartRoot(0, "client", "client.dial", NewSpanContext(i, 1))
		sp.End(0)
	}
	emit()
	runtime.GC()
	if allocs := testing.AllocsPerRun(1000, emit); allocs > 4 {
		t.Errorf("a root span's begin and end: %.0f allocations, budget 4", allocs)
	}
}

// A snapshot is three allocations — the counters and gauges, the
// histograms, and every histogram's bounds and counts — and shares none of
// them with the registry or with another snapshot.
func TestSnapshotCopiesInThreeAllocations(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("a_us", []int64{10, 100}).Observe(50)
	r.Histogram("b_us", DefaultDurationBucketsMicros()).Observe(5)
	r.Collect(func(c *Collector) {
		c.Counter("collected_total", 3)
		c.Gauge("collected", 4)
	})
	runtime.GC()
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Snapshot() }); allocs != 3 {
		t.Errorf("a snapshot: %.0f allocations, want 3", allocs)
	}

	a, b := r.Snapshot(), r.Snapshot()
	want := r.Snapshot().Text()
	a.Counters[0].Value = 99
	a.Gauges = append(a.Gauges, NamedValue{"x", 1}) // cap-bounded: may not spill into another slice
	a.Counters = append(a.Counters, NamedValue{"y", 1})
	for i := range a.Histograms {
		a.Histograms[i].Bounds[0] = -1
		a.Histograms[i].Counts[0] = 99
	}
	if got := b.Text(); got != want {
		t.Errorf("writing one snapshot changed another:\n%s\nwant:\n%s", got, want)
	}
	if got := r.Snapshot().Text(); got != want {
		t.Errorf("writing a snapshot changed the registry:\n%s\nwant:\n%s", got, want)
	}
	if bounds := b.Histograms[1].Bounds; !slices.Equal(bounds, DefaultDurationBucketsMicros()) {
		t.Errorf("b_us bounds = %v", bounds)
	}
}
