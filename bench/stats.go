package main

import (
	"math"
	"time"

	"incastproxy/internal/stats"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, as the repository's own stats.Sample computes
// percentiles; xs need not be sorted and is left untouched.
func quantile(xs []float64, q float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(100 * q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates of the percentile rule, ascending, each
// with the share of samples beyond it in parts per thousand.
var tailPercentiles = []struct {
	pct    float64
	beyond int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// tailPercentile is the percentile rule: the highest candidate percentile
// that still has at least ten of n samples beyond it. Below twenty samples
// not even the median qualifies, and the median is what is reported.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0].pct
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*1000 {
			best = c.pct
		}
	}
	return best
}

// normalise is the adjacent-calibration normaliser. cal holds len(blocks)+1
// kernel times: cal[b] ran just before block b and cal[b+1] just after it.
// Each op's cost is its wall time divided by the mean of its block's two
// adjacent kernel times; the costs come back block by block.
func normalise(blocks [][]time.Duration, cal []time.Duration) [][]float64 {
	costs := make([][]float64, len(blocks))
	for b, ops := range blocks {
		unit := (cal[b] + cal[b+1]).Seconds() / 2
		for _, d := range ops {
			costs[b] = append(costs[b], d.Seconds()/unit)
		}
	}
	return costs
}

// ratios divides a by b element by element.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

// minDuration runs f reps times and returns its shortest time: the
// repetition least disturbed by the host.
func minDuration(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
