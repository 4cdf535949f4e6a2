package model

import (
	"testing"

	"incastproxy/internal/topo"
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

// BenchmarkPredictUnderRun prices a prediction that replays a long loop's
// under-run round by round: degree 4, 100 MB over 100 us links, whose burst
// fits the buffer and whose BDP is far past the mark band.
func BenchmarkPredictUnderRun(b *testing.B) {
	cfg := topo.DefaultConfig()
	cfg.InterDelay = 100 * units.Microsecond
	p, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 4, TotalBytes: 100 * units.MB, Topo: cfg})
	if err != nil {
		b.Fatal(err)
	}
	if Predict(p).Idle == 0 {
		b.Fatal("no under-run to replay")
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
