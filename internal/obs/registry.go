package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. All methods are safe
// for concurrent use and safe on a nil receiver (writes become no-ops, reads
// return zero), so hot paths can record unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (e.g. active connections). Nil-safe like
// Counter.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations into fixed buckets. Bounds are
// inclusive upper edges in ascending order; an implicit +Inf bucket catches
// the rest. Observe is lock-free: a binary search plus three atomic adds.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// DefaultDurationBucketsMicros returns histogram bounds suited to latencies
// from sub-microsecond NIC hops to multi-second RTO stalls, in microseconds.
func DefaultDurationBucketsMicros() []int64 {
	return []int64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
		100_000, 200_000, 500_000, 1_000_000, 5_000_000}
}

// Registry holds named instruments and snapshot-time collectors.
// Get-or-create lookups lock; recording on the returned instrument does not.
// A nil *Registry hands out nil instruments, so instrumentation can be wired
// unconditionally. Create with NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Collector)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use (later calls reuse the existing buckets).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		slices.Sort(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Collect registers fn to export, at every snapshot, values some other
// struct already tracks (queue stats, sender stats) with zero hot-path cost:
// one collector per layer emits all of that layer's series from one walk.
// Collectors run under the registry lock in the order they were registered,
// which matters when reading one layer's values changes another's (a port's
// queue catches up on read, and that can schedule engine events).
func (r *Registry) Collect(fn func(*Collector)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Collector is what a collector emits its series into during a snapshot.
type Collector struct{ s *Snapshot }

// Counter emits the counter series name with value v.
func (c *Collector) Counter(name string, v uint64) {
	c.s.Counters = append(c.s.Counters, NamedValue{name, int64(v)})
}

// Gauge emits the gauge series name with value v.
func (c *Collector) Gauge(name string, v int64) {
	c.s.Gauges = append(c.s.Gauges, NamedValue{name, v})
}

// NamedValue is one scalar metric in a snapshot.
type NamedValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram in a snapshot. Counts has one entry per
// bound plus a final +Inf bucket. Its JSON form, in a manifest, is keyed by
// Name.
type HistogramValue struct {
	Name   string   `json:"-"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name.
// Equal registry states produce byte-identical WriteText/WriteJSON output.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []HistogramValue
}

// Snapshot captures every instrument and collector. Collectors run first,
// under the registry lock, in registration order.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	col := Collector{&s}
	for _, fn := range r.collectors {
		fn(&col)
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{name, int64(c.Load())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{name, g.Load()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.sum.Load(),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	byName := func(a, b NamedValue) int { return cmp.Compare(a.Name, b.Name) }
	slices.SortFunc(s.Counters, byName)
	slices.SortFunc(s.Gauges, byName)
	slices.SortFunc(s.Histograms, func(a, b HistogramValue) int { return cmp.Compare(a.Name, b.Name) })
	return s
}

// baseName strips a {label="x"} suffix for Prometheus TYPE lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// LabeledName renders base{key="val"} with the Prometheus text-format
// label-value escaping (backslash, double quote, newline). Use it when
// registering an instrument whose name carries a label pair.
func LabeledName(base, key, val string) string {
	var b strings.Builder
	b.Grow(len(base) + len(key) + len(val) + len(`{=""}`)) // exact unless val needs escaping
	b.WriteString(base)
	b.WriteByte('{')
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}

// WriteText serializes the snapshot in the Prometheus text exposition
// format. Output is deterministic: sorted by name, fixed formatting.
func (s Snapshot) WriteText(w io.Writer) error {
	var lastType string
	emitType := func(name, kind string) error {
		b := baseName(name)
		key := b + "\x00" + kind
		if key == lastType {
			return nil
		}
		lastType = key
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", b, kind)
		return err
	}
	for _, c := range s.Counters {
		if err := emitType(c.Name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := emitType(g.Name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := emitType(h.Name, "histogram"); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.Name, b, cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", h.Name, h.Sum, h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the Prometheus text serialization as a string.
func (s Snapshot) Text() string {
	var b strings.Builder
	_ = s.WriteText(&b) // strings.Builder writes cannot fail
	return b.String()
}
