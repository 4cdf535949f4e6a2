package stats

import (
	"math"
	"testing"

	"incastproxy/internal/rng"
)

// Below capacity the reservoir holds everything, so a bounded sample must
// agree with the exact sample on every aggregate, percentiles included.
func TestBoundedMatchesExactUnderCapacity(t *testing.T) {
	src := rng.New(7)
	var exact Sample
	bounded := NewBounded(4096, 7)
	for i := 0; i < 1000; i++ {
		v := src.Float64() * 100
		exact.Add(v)
		bounded.Add(v)
	}
	if exact.N() != bounded.N() {
		t.Fatalf("N: exact %d, bounded %d", exact.N(), bounded.N())
	}
	if bounded.ReservoirN() != 1000 {
		t.Fatalf("reservoir holds %d, want all 1000", bounded.ReservoirN())
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
		if e, b := exact.Percentile(p), bounded.Percentile(p); e != b {
			t.Errorf("p%g: exact %g, bounded %g", p, e, b)
		}
	}
	if exact.Min() != bounded.Min() || exact.Max() != bounded.Max() {
		t.Error("min/max diverge under capacity")
	}
	if math.Abs(exact.Mean()-bounded.Mean()) > 1e-9 {
		t.Errorf("mean: exact %g, bounded %g", exact.Mean(), bounded.Mean())
	}
	if math.Abs(exact.Stddev()-bounded.Stddev()) > 1e-9 {
		t.Errorf("stddev: exact %g, bounded %g", exact.Stddev(), bounded.Stddev())
	}
}

// Past capacity the moments must stay exact even though the reservoir has
// started evicting: count, mean, min, max are streamed, not sampled.
func TestBoundedMomentsExactOverCapacity(t *testing.T) {
	const n = 50000
	src := rng.New(11)
	var exact Sample
	bounded := NewBounded(512, 11)
	for i := 0; i < n; i++ {
		// A heavy right tail, like flow completion times.
		v := math.Exp(2 * src.NormFloat64())
		exact.Add(v)
		bounded.Add(v)
	}
	if bounded.N() != n {
		t.Fatalf("N = %d, want %d", bounded.N(), n)
	}
	if bounded.ReservoirN() != 512 {
		t.Fatalf("reservoir holds %d, want capacity 512", bounded.ReservoirN())
	}
	if exact.Min() != bounded.Min() {
		t.Errorf("min: exact %g, bounded %g", exact.Min(), bounded.Min())
	}
	if exact.Max() != bounded.Max() {
		t.Errorf("max: exact %g, bounded %g", exact.Max(), bounded.Max())
	}
	if rel := math.Abs(exact.Mean()-bounded.Mean()) / exact.Mean(); rel > 1e-9 {
		t.Errorf("mean relative error %g: exact %g, bounded %g", rel, exact.Mean(), bounded.Mean())
	}
	if rel := math.Abs(exact.Stddev()-bounded.Stddev()) / exact.Stddev(); rel > 1e-6 {
		t.Errorf("stddev relative error %g: exact %g, bounded %g", rel, exact.Stddev(), bounded.Stddev())
	}
}

// Reservoir percentiles are estimates; on a uniform stream 25x the capacity
// they must still land close to the exact order statistics.
func TestBoundedPercentileApproximation(t *testing.T) {
	const n = 100000
	src := rng.New(23)
	var exact Sample
	bounded := NewBounded(4096, 23)
	for i := 0; i < n; i++ {
		v := src.Float64()
		exact.Add(v)
		bounded.Add(v)
	}
	// On Uniform(0,1) the value scale equals the rank scale, so an
	// absolute tolerance is a rank tolerance. 4 standard errors of the
	// p50 estimate at capacity 4096 is ~0.031.
	for _, tc := range []struct{ p, tol float64 }{
		{50, 0.04}, {90, 0.03}, {99, 0.01},
	} {
		e, b := exact.Percentile(tc.p), bounded.Percentile(tc.p)
		if math.Abs(e-b) > tc.tol {
			t.Errorf("p%g: exact %.4f, bounded %.4f, tolerance %.3f", tc.p, e, b, tc.tol)
		}
	}
}

// Same seed + same observation order must reproduce the reservoir exactly;
// this is what keeps bounded summaries byte-identical from run to run.
func TestBoundedDeterministic(t *testing.T) {
	feed := func(s *Sample) {
		src := rng.New(5)
		for i := 0; i < 10000; i++ {
			s.Add(src.ExpFloat64())
		}
	}
	a, b := NewBounded(256, 99), NewBounded(256, 99)
	feed(a)
	feed(b)
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("reservoirs diverge at %d: %g vs %g", i, av[i], bv[i])
		}
	}

	// A different reservoir seed changes eviction choices but never the
	// streamed moments.
	c := NewBounded(256, 100)
	feed(c)
	if a.Mean() != c.Mean() || a.Min() != c.Min() || a.Max() != c.Max() || a.N() != c.N() {
		t.Error("streamed moments depend on the reservoir seed")
	}
}

func TestBoundedDropsNaNAndClampsCapacity(t *testing.T) {
	s := NewBounded(0, 1) // capacity clamps to 1
	s.Add(math.NaN())
	if s.N() != 0 {
		t.Fatal("NaN counted")
	}
	s.Add(3)
	s.Add(5)
	if s.N() != 2 || s.ReservoirN() != 1 {
		t.Fatalf("N=%d reservoir=%d, want 2 and 1", s.N(), s.ReservoirN())
	}
	if s.Min() != 3 || s.Max() != 5 || s.Mean() != 4 {
		t.Errorf("moments wrong: min %g max %g mean %g", s.Min(), s.Max(), s.Mean())
	}
	if !s.Bounded() {
		t.Error("Bounded() false for NewBounded sample")
	}
	var exact Sample
	if exact.Bounded() {
		t.Error("Bounded() true for zero-value sample")
	}
}

// SummarizeDurations must work identically over a bounded sample that never
// overflowed — the common case for sub-capacity incast degrees.
func TestSummarizeDurationsBounded(t *testing.T) {
	var exact Sample
	bounded := NewBounded(4096, 1)
	for i := 1; i <= 100; i++ {
		exact.Add(float64(i))
		bounded.Add(float64(i))
	}
	if SummarizeDurations(&exact) != SummarizeDurations(bounded) {
		t.Error("summaries diverge under capacity")
	}
}
