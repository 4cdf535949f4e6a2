// Package stats provides the small statistical toolkit the experiment
// harness needs: percentile estimation, CDFs for the Figure 4-5 latency
// plots, and min/mean/max aggregation across repeated simulation runs
// (the paper reports average, minimum and maximum incast completion time
// over 5 runs).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

// Sample accumulates float64 observations. The zero value is ready to use
// and stores every observation exactly; NewBounded returns a Sample whose
// memory stays constant no matter how many observations arrive.
type Sample struct {
	// values holds every observation in exact mode, or the reservoir in
	// bounded mode.
	values []float64
	sorted bool

	// Bounded mode (NewBounded). bound > 0 selects it: moments stream
	// through Welford's recurrence while values becomes a fixed-size
	// uniform reservoir (Vitter's Algorithm R) used only for percentiles.
	bound  int
	src    *rng.Source
	count  int64
	mu, m2 float64
	lo, hi float64
}

// boundedSampleLabel namespaces the reservoir's RNG stream under
// rng.DeriveSeed so a bounded sample never shares a stream with any other
// consumer of the same base seed.
const boundedSampleLabel = 0x5e5e

// NewBounded returns a Sample whose memory footprint is fixed at capacity
// observations regardless of how many are added, and allocated up front, so
// Add never allocates. Count, mean, min, max, and standard deviation stay
// exact (streamed); percentiles are estimated from a uniform reservoir of at
// most capacity observations. Replacement decisions
// draw from a deterministic stream derived from seed via rng.DeriveSeed, so
// two bounded samples fed identical observations in identical order with the
// same seed report byte-identical results — which is what lets the workload
// harness summarize per-flow completion times at 10k-sender scale without
// unbounded buffers and without breaking reproducibility.
func NewBounded(capacity int, seed int64) *Sample {
	if capacity < 1 {
		capacity = 1
	}
	return &Sample{
		values: make([]float64, 0, capacity),
		bound:  capacity,
		src:    rng.New(rng.DeriveSeed(seed, boundedSampleLabel)),
	}
}

// Bounded reports whether the sample was built by NewBounded.
func (s *Sample) Bounded() bool { return s.bound > 0 }

// ReservoirN returns how many observations the percentile reservoir
// currently holds: min(N, capacity) in bounded mode, N otherwise.
func (s *Sample) ReservoirN() int { return len(s.values) }

// Add appends an observation. NaN observations are dropped: one NaN would
// poison every aggregate (mean, percentiles, CDF ranks) and break the sort
// order percentile interpolation depends on.
func (s *Sample) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.bound > 0 {
		s.addBounded(v)
		return
	}
	s.values = append(s.values, v)
	s.sorted = false
}

func (s *Sample) addBounded(v float64) {
	s.count++
	if s.count == 1 || v < s.lo {
		s.lo = v
	}
	if s.count == 1 || v > s.hi {
		s.hi = v
	}
	d := v - s.mu
	s.mu += d / float64(s.count)
	s.m2 += d * (v - s.mu)

	// Algorithm R: the first bound observations fill the reservoir; the
	// k-th observation then replaces a uniformly random slot with
	// probability bound/k, keeping every prefix a uniform sample.
	if len(s.values) < s.bound {
		s.values = append(s.values, v)
		s.sorted = false
		return
	}
	if j := s.src.Intn(int(s.count)); j < s.bound {
		s.values[j] = v
		s.sorted = false
	}
}

// AddDuration appends a duration observation in picoseconds.
func (s *Sample) AddDuration(d units.Duration) { s.Add(float64(d)) }

// N returns the number of observations, including (in bounded mode) those
// no longer held in the reservoir.
func (s *Sample) N() int {
	if s.bound > 0 {
		return int(s.count)
	}
	return len(s.values)
}

// Mean returns the arithmetic mean, or 0 for an empty sample. Exact in both
// modes.
func (s *Sample) Mean() float64 {
	if s.bound > 0 {
		return s.mu
	}
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample. Exact in
// both modes.
func (s *Sample) Min() float64 {
	if s.bound > 0 {
		return s.lo
	}
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample. Exact in
// both modes.
func (s *Sample) Max() float64 {
	if s.bound > 0 {
		return s.hi
	}
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Stddev returns the sample standard deviation. Exact in both modes (bounded
// mode streams the second moment with Welford's recurrence).
func (s *Sample) Stddev() float64 {
	if s.bound > 0 {
		if s.count < 2 {
			return 0
		}
		return math.Sqrt(s.m2 / float64(s.count-1))
	}
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample and
// NaN for a NaN p; p outside [0, 100] (including ±Inf) clamps to the
// extremes rather than extrapolating past the observed range. In bounded
// mode the rank is taken over the reservoir, so once N exceeds the capacity
// the result is a uniform-subsample estimate, not the exact order statistic.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	s.sort()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Values returns a sorted copy of the stored observations (the reservoir,
// in bounded mode).
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// DurationSummary reports a sample of durations as min/mean/max with
// percentiles, matching how the paper quotes latency results.
type DurationSummary struct {
	N                   int
	Min, Mean, Max      units.Duration
	P50, P90, P99, P999 units.Duration
}

// SummarizeDurations computes a DurationSummary from a Sample that holds
// picosecond observations.
func SummarizeDurations(s *Sample) DurationSummary {
	return DurationSummary{
		N:    s.N(),
		Min:  units.Duration(s.Min()),
		Mean: units.Duration(s.Mean()),
		Max:  units.Duration(s.Max()),
		P50:  units.Duration(s.Percentile(50)),
		P90:  units.Duration(s.Percentile(90)),
		P99:  units.Duration(s.Percentile(99)),
		P999: units.Duration(s.Percentile(99.9)),
	}
}

func (d DurationSummary) String() string {
	return fmt.Sprintf("n=%d min=%v mean=%v p50=%v p99=%v max=%v",
		d.N, d.Min, d.Mean, d.P50, d.P99, d.Max)
}

// CDF is an empirical cumulative distribution function over durations,
// used to regenerate the Figure 4 and Figure 5 plots.
type CDF struct {
	sample Sample
}

// Observe records one duration.
func (c *CDF) Observe(d units.Duration) { c.sample.AddDuration(d) }

// N returns the number of observations.
func (c *CDF) N() int { return c.sample.N() }

// At returns the empirical fraction of observations <= d.
func (c *CDF) At(d units.Duration) float64 {
	vals := c.sample.Values()
	if len(vals) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(vals, float64(d)+0.5)
	return float64(idx) / float64(len(vals))
}

// Quantile returns the inverse empirical CDF at q in [0,1]: the smallest
// observed duration d such that At(d) >= q.
func (c *CDF) Quantile(q float64) units.Duration {
	vals := c.sample.Values()
	if len(vals) == 0 {
		return 0
	}
	if q <= 0 {
		return units.Duration(vals[0])
	}
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return units.Duration(vals[idx])
}

// Points returns n evenly spaced (duration, probability) pairs suitable for
// plotting, from the minimum to the maximum observation.
func (c *CDF) Points(n int) []CDFPoint {
	vals := c.sample.Values()
	if len(vals) == 0 || n <= 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 1
		}
		pts = append(pts, CDFPoint{
			Latency: units.Duration(c.sample.Percentile(q * 100)),
			Prob:    q,
		})
	}
	return pts
}

// CDFPoint is one plotted point of an empirical CDF.
type CDFPoint struct {
	Latency units.Duration
	Prob    float64
}

// Table renders the CDF as a fixed set of quantiles, one per line, in the
// form the figure regeneration tools print.
func (c *CDF) Table() string {
	var b strings.Builder
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999} {
		fmt.Fprintf(&b, "p%05.1f %v\n", q*100, c.Quantile(q))
	}
	return b.String()
}

// RunStats aggregates one scalar metric (e.g. incast completion time) across
// repeated runs and reports average, minimum and maximum, exactly as §4.1
// describes ("We run each setup 5 times and report the average, minimum and
// maximum incast completion time").
type RunStats struct {
	sample Sample
}

// Add records the metric from one run.
func (r *RunStats) Add(d units.Duration) { r.sample.AddDuration(d) }

// N returns the number of recorded runs.
func (r *RunStats) N() int { return r.sample.N() }

// Avg returns the mean across runs.
func (r *RunStats) Avg() units.Duration { return units.Duration(r.sample.Mean()) }

// Min returns the minimum across runs.
func (r *RunStats) Min() units.Duration { return units.Duration(r.sample.Min()) }

// Max returns the maximum across runs.
func (r *RunStats) Max() units.Duration { return units.Duration(r.sample.Max()) }

func (r *RunStats) String() string {
	return fmt.Sprintf("avg=%v min=%v max=%v (n=%d)", r.Avg(), r.Min(), r.Max(), r.N())
}

// Reduction returns the relative reduction of b versus a, i.e. (a-b)/a,
// as a fraction in [0,1] when b <= a. The paper quotes proxy gains this way
// ("reduces incast completion time by 70.60%").
func Reduction(a, b units.Duration) float64 {
	if a == 0 {
		return 0
	}
	return float64(a-b) / float64(a)
}
