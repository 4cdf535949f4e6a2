package model

import (
	"testing"

	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// BenchmarkPredictFCT prices one full prediction (regime selection plus FCT
// distribution) in the overflow regime — the most branch-heavy path.
func BenchmarkPredictFCT(b *testing.B) {
	p, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 8, TotalBytes: 100 * units.MB})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink Prediction
	for i := 0; i < b.N; i++ {
		sink = Predict(p)
	}
	_ = sink
}

// BenchmarkPredictICT prices both candidate paths of one request (Compare),
// as `incastsim -estimate` evaluates them for an adaptive run.
func BenchmarkPredictICT(b *testing.B) {
	p, err := FromSpec(workload.Spec{Scheme: workload.ProxyStreamlined, Degree: 8, TotalBytes: 100 * units.MB})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink units.Duration
	for i := 0; i < b.N; i++ {
		d, pr := Compare(p)
		sink = d.ICT + pr.ICT
	}
	_ = sink
}

// BenchmarkFromSpec prices the spec-to-params mapping (validation plus
// analytic path RTTs), the entry point the fast sweep pays per cell.
func BenchmarkFromSpec(b *testing.B) {
	sp := workload.Spec{Scheme: workload.ProxyStreamlined, Degree: 8, TotalBytes: 100 * units.MB}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromSpec(sp); err != nil {
			b.Fatal(err)
		}
	}
}
