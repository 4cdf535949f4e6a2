package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing uint64 metric. All methods are safe
// for concurrent use and safe on a nil receiver (writes become no-ops, reads
// return zero), so hot paths can record unconditionally.
type Counter struct {
	v    atomic.Uint64
	name string
	next *Counter // the registry's counters, newest first
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
	v    atomic.Int64
	name string
	next *Gauge // the registry's gauges, newest first
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

// inlineBounds is how many bounds a Histogram holds in its own allocation;
// DefaultDurationBucketsMicros has 20.
const inlineBounds = 20

// Histogram counts int64 observations into fixed buckets. Bounds are
// inclusive upper edges in ascending order; an implicit +Inf bucket catches
// the rest. Observe is lock-free: a binary search plus three atomic adds.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Uint64
	name   string
	next   *Histogram // the registry's histograms, newest first
	// inline backs bounds and counts when there are at most inlineBounds
	// bounds, so such a histogram is one allocation.
	inline struct {
		bounds [inlineBounds]int64
		counts [inlineBounds + 1]atomic.Uint64
	}
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

// durationBucketsMicros are DefaultDurationBucketsMicros' bounds.
var durationBucketsMicros = [inlineBounds]int64{1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000, 5_000_000}

// DefaultDurationBucketsMicros returns histogram bounds suited to latencies
// from sub-microsecond NIC hops to multi-second RTO stalls, in microseconds.
// The slice is the caller's own copy; passed straight to Registry.Histogram,
// which copies what it keeps, it stays on the caller's stack.
func DefaultDurationBucketsMicros() []int64 {
	b := durationBucketsMicros
	return b[:]
}

// Registry holds named instruments and snapshot-time collectors.
// Get-or-create lookups lock; recording on the returned instrument does not.
// A nil *Registry hands out nil instruments, so instrumentation can be wired
// unconditionally. Create with NewRegistry.
//
// A registry is one allocation until it outgrows its inline buffers (eight
// collectors, 64 collected series per snapshot): each instrument is one
// more, and a snapshot three.
type Registry struct {
	mu         sync.Mutex
	counters   *Counter
	gauges     *Gauge
	hists      *Histogram
	nCounters  int
	nGauges    int
	nHists     int
	nCells     int // the bounds and counts of every histogram
	collectors []func(*Collector)
	col        Collector // reused by every snapshot, under mu
	inline     struct {
		collectors [8]func(*Collector)
		series     [64]series
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.collectors = r.inline.collectors[:0]
	r.col.series = r.inline.series[:0]
	return r
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := r.counters; c != nil; c = c.next {
		if c.name == name {
			return c
		}
	}
	r.counters = &Counter{name: name, next: r.counters}
	r.nCounters++
	return r.counters
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for g := r.gauges; g != nil; g = g.next {
		if g.name == name {
			return g
		}
	}
	r.gauges = &Gauge{name: name, next: r.gauges}
	r.nGauges++
	return r.gauges
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use (later calls reuse the existing buckets).
// It keeps a sorted copy of bounds, never bounds itself.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for h := r.hists; h != nil; h = h.next {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, next: r.hists}
	if n := len(bounds); n <= inlineBounds {
		h.bounds, h.counts = h.inline.bounds[:n:n], h.inline.counts[:n+1:n+1]
	} else {
		h.bounds, h.counts = make([]int64, n), make([]atomic.Uint64, n+1)
	}
	copy(h.bounds, bounds)
	slices.Sort(h.bounds)
	r.hists = h
	r.nHists++
	r.nCells += 2*len(bounds) + 1
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
type Collector struct {
	series []series // this snapshot's, in emission order
}

// series is one value a collector emitted.
type series struct {
	NamedValue
	gauge bool
}

// Counter emits the counter series name with value v.
func (c *Collector) Counter(name string, v uint64) {
	c.series = append(c.series, series{NamedValue{name, int64(v)}, false})
}

// Gauge emits the gauge series name with value v.
func (c *Collector) Gauge(name string, v int64) {
	c.series = append(c.series, series{NamedValue{name, v}, true})
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
// under the registry lock, in registration order. The snapshot is a copy in
// three allocations of its own: one for the counters and gauges, one for
// the histograms, one for every histogram's bounds and counts. It shares no
// slice with the registry or with another snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.col.series = r.col.series[:0]
	for _, fn := range r.collectors {
		fn(&r.col)
	}
	nc, ng := r.nCounters, r.nGauges
	for _, v := range r.col.series {
		if v.gauge {
			ng++
		} else {
			nc++
		}
	}
	vals := make([]NamedValue, 0, nc+ng)
	counters, gauges := vals[:0:nc], vals[nc:nc]
	for _, v := range r.col.series {
		if v.gauge {
			gauges = append(gauges, v.NamedValue)
		} else {
			counters = append(counters, v.NamedValue)
		}
	}
	for c := r.counters; c != nil; c = c.next {
		counters = append(counters, NamedValue{c.name, int64(c.Load())})
	}
	for g := r.gauges; g != nil; g = g.next {
		gauges = append(gauges, NamedValue{g.name, g.Load()})
	}
	byName := func(a, b NamedValue) int { return cmp.Compare(a.Name, b.Name) }
	if nc > 0 {
		s.Counters = counters
		slices.SortFunc(s.Counters, byName)
	}
	if ng > 0 {
		s.Gauges = gauges
		slices.SortFunc(s.Gauges, byName)
	}
	if r.nHists == 0 {
		return s
	}
	s.Histograms = make([]HistogramValue, 0, r.nHists)
	cells := make([]uint64, r.nCells)
	for h := r.hists; h != nil; h = h.next {
		nb := len(h.bounds)
		hv := HistogramValue{
			Name:   h.name,
			Counts: cells[nb : 2*nb+1 : 2*nb+1],
			Sum:    h.sum.Load(),
			Count:  h.count.Load(),
		}
		if nb > 0 {
			hv.Bounds = int64s(cells[:nb:nb])
			copy(hv.Bounds, h.bounds)
		}
		cells = cells[2*nb+1:]
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	slices.SortFunc(s.Histograms, func(a, b HistogramValue) int { return cmp.Compare(a.Name, b.Name) })
	return s
}

// int64s is c as []int64, which has uint64's size and layout: a snapshot's
// histogram bounds share its counts' one allocation.
func int64s(c []uint64) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(c))), len(c))
}

// baseName strips a {label="x"} suffix for Prometheus TYPE lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// AppendLabeledName appends base{key="val"} to b, escaping val as the
// Prometheus text format requires (backslash, double quote, newline). Use it
// to build the name of an instrument or series that carries a label pair.
func AppendLabeledName(b []byte, base, key string, val []byte) []byte {
	b = append(append(append(append(b, base...), '{'), key...), `="`...)
	for _, c := range val {
		switch c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return append(b, `"}`...)
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
