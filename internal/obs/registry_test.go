package obs

import (
	"slices"
	"strings"
	"testing"
)

// Instrumented code records unconditionally; every instrument and the
// registry itself must be safe (and silent) with nil receivers.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter should read zero")
	}
	var g *Gauge
	g.Add(-3)
	g.Set(7)
	if g.Load() != 0 {
		t.Fatal("nil gauge should read zero")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read zero")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil ||
		r.Histogram("x", []int64{1}) != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	r.Collect(func(*Collector) { t.Error("nil registry ran a collector") })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	if s.Text() != "" {
		t.Fatalf("nil registry text = %q", s.Text())
	}
}

func TestCounterGaugeMax(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	c.Inc()
	if c.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c.Load())
	}
	if r.Counter("hits") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if g.Load() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	hv := r.Snapshot().Histograms[0]
	// Bounds are inclusive upper edges: 1 and 10 land in le=10; 11 and
	// 100 in le=100; 5000 overflows to +Inf.
	want := []uint64{2, 2, 0, 1}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
}

// A collector runs only when a snapshot is taken, and the series it emits are
// in the snapshot.
func TestLazyCollectors(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.Collect(func(c *Collector) {
		calls++
		c.Counter("lazy_total", 42)
		c.Gauge("lazy_depth", -7)
	})
	if calls != 0 {
		t.Fatal("collector must not run before snapshot")
	}
	s := r.Snapshot()
	if calls != 1 {
		t.Fatalf("collector ran %d times, want 1", calls)
	}
	if want := []NamedValue{{"lazy_total", 42}}; !slices.Equal(s.Counters, want) {
		t.Fatalf("counters = %v, want %v", s.Counters, want)
	}
	if want := []NamedValue{{"lazy_depth", -7}}; !slices.Equal(s.Gauges, want) {
		t.Fatalf("gauges = %v, want %v", s.Gauges, want)
	}
}

// A collector registered first runs once per snapshot ahead of the later
// ones, so a layer that prepares an aggregate in its first collector (as the
// engine does) lets later collectors read that snapshot's values.
func TestBeforeSnapshotRunsOnceAheadOfCollectors(t *testing.T) {
	r := NewRegistry()
	source, prepared, prepares := 0, 0, 0
	r.Collect(func(*Collector) { prepares++; prepared = source })
	r.Collect(func(c *Collector) {
		c.Counter("a_total", uint64(prepared))
		c.Gauge("b", int64(prepared))
	})
	for _, want := range []int{3, 8} {
		source = want
		s := r.Snapshot()
		if a, b := s.Counters[0].Value, s.Gauges[0].Value; a != int64(want) || b != int64(want) {
			t.Fatalf("snapshot read a=%d b=%d, want %d from this snapshot's first collector", a, b, want)
		}
	}
	if prepares != 2 {
		t.Fatalf("first collector ran %d times over 2 snapshots", prepares)
	}
}

// Each collector runs once per snapshot, in the order it was registered, and
// its series are exported sorted by name among the instruments'.
func TestCollectorsRunOncePerSnapshotInRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	var order []string
	r.Counter("b_total").Add(5)
	r.Collect(func(c *Collector) {
		order = append(order, "first")
		c.Counter("c_total", 42)
	})
	r.Collect(func(c *Collector) {
		order = append(order, "second")
		c.Counter("a_total", uint64(len(order)))
	})
	for snap := 1; snap <= 2; snap++ {
		s := r.Snapshot()
		if want := 2 * snap; len(order) != want || order[want-2] != "first" || order[want-1] != "second" {
			t.Fatalf("after %d snapshots collectors ran %v, want first, second per snapshot", snap, order)
		}
		// a_total reads the order as of this snapshot's second collector.
		want := []NamedValue{{"a_total", int64(2 * snap)}, {"b_total", 5}, {"c_total", 42}}
		if !slices.Equal(s.Counters, want) {
			t.Fatalf("snapshot %d counters = %v, want %v", snap, s.Counters, want)
		}
	}
}

// Registration order must not leak into the export: two registries built in
// different orders with equal state serialize byte-identically.
func TestSnapshotDeterministicOrder(t *testing.T) {
	mk := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(5)
		}
		r.Gauge("g").Set(1)
		r.Histogram("h", []int64{1, 2}).Observe(2)
		return r.Snapshot().Text()
	}
	a := mk([]string{"b_total", "a_total", "c_total"})
	b := mk([]string{"c_total", "b_total", "a_total"})
	if a != b {
		t.Fatalf("registration order changed the export:\n%s\nvs\n%s", a, b)
	}
	idxA := strings.Index(a, "a_total")
	idxB := strings.Index(a, "b_total")
	if idxA < 0 || idxB < 0 || idxA > idxB {
		t.Fatalf("export not name-sorted:\n%s", a)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`q_dropped_total{port="a->b"}`).Add(3)
	r.Counter(`q_dropped_total{port="c->d"}`).Add(4)
	r.Gauge("depth").Set(2)
	r.Histogram("lat_us", []int64{10, 100}).Observe(50)
	got := r.Snapshot().Text()

	// One TYPE line per base name even with two labeled children.
	if n := strings.Count(got, "# TYPE q_dropped_total counter"); n != 1 {
		t.Fatalf("TYPE lines for labeled counter = %d, want 1\n%s", n, got)
	}
	for _, want := range []string{
		`q_dropped_total{port="a->b"} 3`,
		`q_dropped_total{port="c->d"} 4`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="10"} 0`,
		`lat_us_bucket{le="100"} 1`,
		`lat_us_bucket{le="+Inf"} 1`,
		"lat_us_sum 50",
		"lat_us_count 1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}
