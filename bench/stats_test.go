package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile that still has ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {14, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestNormaliseUsesAdjacentCalibration(t *testing.T) {
	ms := time.Millisecond
	// The host slows down by half between block 0 and block 1: the same
	// op takes 300 ms, then 450 ms, and the kernel 100, 100, then 200 ms.
	blocks := [][]time.Duration{{300 * ms, 300 * ms}, {450 * ms}}
	cal := []time.Duration{100 * ms, 100 * ms, 200 * ms}
	got := normalise(blocks, cal)
	want := [][]float64{{3, 3}, {3}}
	for b := range want {
		if len(got[b]) != len(want[b]) {
			t.Fatalf("block %d: %d costs, want %d", b, len(got[b]), len(want[b]))
		}
		for i := range want[b] {
			if math.Abs(got[b][i]-want[b][i]) > 1e-12 {
				t.Errorf("block %d op %d: cost %v, want %v", b, i, got[b][i], want[b][i])
			}
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
