package obs

// Golden test for the Prometheus text exposition: one registry covering
// every rendering rule — plain and labeled counters (one TYPE line per
// base name), gauges, histograms with cumulative buckets, and label-value
// escaping — compared byte-for-byte.
// Any format drift (ordering, TYPE dedup, escaping) fails here first.

import (
	"runtime"
	"testing"
)

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(`relay_sheds_total{verdict="busy"}`).Add(2)
	r.Counter(LabeledName("relay_sheds_total", "verdict", `a"b\`)).Add(4)
	r.Gauge("active").Set(3)
	r.Gauge(LabeledName("note", "k", "x\ny")).Set(7)
	r.Histogram("lat_us", []int64{10, 100}).Observe(50)

	const want = `# TYPE relay_sheds_total counter
relay_sheds_total{verdict="a\"b\\"} 4
relay_sheds_total{verdict="busy"} 2
# TYPE active gauge
active 3
# TYPE note gauge
note{k="x\ny"} 7
# TYPE lat_us histogram
lat_us_bucket{le="10"} 0
lat_us_bucket{le="100"} 1
lat_us_bucket{le="+Inf"} 1
lat_us_sum 50
lat_us_count 1
`
	if got := r.Snapshot().Text(); got != want {
		t.Fatalf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabeledNameEscaping(t *testing.T) {
	for _, tc := range []struct{ val, want string }{
		{"plain", `m{k="plain"}`},
		{`back\slash`, `m{k="back\\slash"}`},
		{`qu"ote`, `m{k="qu\"ote"}`},
		{"new\nline", `m{k="new\nline"}`},
		{"a\\b\"c\nd", `m{k="a\\b\"c\nd"}`},
	} {
		if got := LabeledName("m", "k", tc.val); got != tc.want {
			t.Fatalf("LabeledName(%q) = %q, want %q", tc.val, got, tc.want)
		}
	}
}

var labeledSink string

// A label value with nothing to escape renders in one allocation: the name's
// own bytes, sized before it is written.
func TestLabeledNameAllocatesOnce(t *testing.T) {
	runtime.GC()
	if allocs := testing.AllocsPerRun(100, func() {
		labeledSink = LabeledName("transport_flow_fct_seconds", "flow", "streamlined 12")
	}); allocs != 1 {
		t.Errorf("LabeledName of a plain label: %.0f allocations, want 1", allocs)
	}
}
