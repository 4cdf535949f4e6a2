package incastproxy

// Benchmark harness: one bench per paper table/figure (see DESIGN.md §4).
//
// Each simulation bench runs a reduced-size instance (documented inline)
// that preserves the corresponding figure's shape; `cmd/figures -full`
// regenerates the paper-scale series. Benchmarks report simulated events
// and incast completion times as custom metrics so `go test -bench` output
// doubles as a results table.

import (
	"fmt"
	"testing"

	"incastproxy/internal/hoststack"
	"incastproxy/internal/workload"
)

// benchIncast runs one incast spec b.N times, reporting ICT and event
// throughput.
func benchIncast(b *testing.B, spec IncastSpec) {
	b.Helper()
	var lastICT Duration
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := RunIncast(spec)
		if err != nil {
			b.Fatal(err)
		}
		lastICT = res.ICT.Avg()
		events = res.Runs[0].Events
	}
	b.ReportMetric(lastICT.Milliseconds(), "ict-ms")
	b.ReportMetric(float64(events), "events")
}

// BenchmarkFig2LeftDegreeSweep regenerates Figure 2 (Left) at reduced
// scale: ICT vs incast degree for all three schemes, 40 MB total.
func BenchmarkFig2LeftDegreeSweep(b *testing.B) {
	for _, deg := range []int{4, 8} {
		for _, s := range Schemes() {
			b.Run(fmt.Sprintf("degree=%d/%v", deg, s), func(b *testing.B) {
				benchIncast(b, IncastSpec{Scheme: s, Degree: deg, TotalBytes: 40 * MB, Runs: 1, Seed: 7})
			})
		}
	}
}

// BenchmarkFig2RightSizeSweep regenerates Figure 2 (Right) at reduced
// scale: ICT vs incast size at degree 4, bracketing the ~20 MB crossover.
func BenchmarkFig2RightSizeSweep(b *testing.B) {
	for _, size := range []ByteSize{10 * MB, 40 * MB} {
		for _, s := range Schemes() {
			b.Run(fmt.Sprintf("size=%v/%v", size, s), func(b *testing.B) {
				benchIncast(b, IncastSpec{Scheme: s, Degree: 4, TotalBytes: size, Runs: 1, Seed: 7})
			})
		}
	}
}

// BenchmarkFig3LatencySweep regenerates Figure 3 at reduced scale: ICT vs
// long-haul link latency at degree 4, 40 MB.
func BenchmarkFig3LatencySweep(b *testing.B) {
	for _, lat := range []Duration{100 * Microsecond, Millisecond} {
		for _, s := range Schemes() {
			b.Run(fmt.Sprintf("latency=%v/%v", lat, s), func(b *testing.B) {
				t := DefaultTopo()
				t.InterDelay = lat
				benchIncast(b, IncastSpec{Scheme: s, Degree: 4, TotalBytes: 40 * MB, Runs: 1, Seed: 7, Topo: t})
			})
		}
	}
}

// BenchmarkFastSweep1000Cells prices the analytical fast path at sweep
// scale: a 1002-cell Figure 2 (Right) grid (334 sizes x 3 schemes) evaluated
// entirely by the model, serially. Contrast with BenchmarkFig2LeftDegreeSweep,
// whose six DES cells cost seconds each — `make bench-json` records both in
// BENCH_model.json, and that ratio is the fast path's reason to exist.
func BenchmarkFastSweep1000Cells(b *testing.B) {
	sizes := make([]ByteSize, 0, 334)
	for i := 1; i <= 334; i++ {
		sizes = append(sizes, ByteSize(i)*MB)
	}
	cfg := SweepConfig{
		Sizes:           sizes,
		Fig2RightDegree: 8,
		Runs:            1,
		Seed:            7,
		Parallel:        1,
		Fast:            true,
	}
	var cells int
	for i := 0; i < b.N; i++ {
		pts, err := Figure2Right(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells = len(pts)
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkFig1BottleneckShift measures the Figure 1 telemetry run: where
// the hot queue sits under baseline vs streamlined.
func BenchmarkFig1BottleneckShift(b *testing.B) {
	for _, s := range []Scheme{Baseline, ProxyStreamlined} {
		b.Run(s.String(), func(b *testing.B) {
			var rxQ, pxQ float64
			for i := 0; i < b.N; i++ {
				res, err := RunIncast(IncastSpec{Scheme: s, Degree: 8, TotalBytes: 40 * MB, Runs: 1, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				rxQ = float64(res.Runs[0].ReceiverToRMaxQueue)
				pxQ = float64(res.Runs[0].ProxyToRMaxQueue)
			}
			b.ReportMetric(rxQ/1e6, "rxToR-MB")
			b.ReportMetric(pxQ/1e6, "pxToR-MB")
		})
	}
}

// BenchmarkFig4UserspaceCDF regenerates the Figure 4 user-space proxy
// latency distribution and reports its p50/p99.
func BenchmarkFig4UserspaceCDF(b *testing.B) {
	var p50, p99 Duration
	for i := 0; i < b.N; i++ {
		c := Figure4(100_000, 1)
		p50, p99 = c.Quantile(0.5), c.Quantile(0.99)
	}
	b.ReportMetric(p50.Microseconds(), "p50-us")
	b.ReportMetric(p99.Microseconds(), "p99-us")
}

// BenchmarkFig5aEBPFLowerBound regenerates the modeled eBPF lower bound.
func BenchmarkFig5aEBPFLowerBound(b *testing.B) {
	var p50 Duration
	for i := 0; i < b.N; i++ {
		p50 = Figure5a(100_000, 0.05, 2).Quantile(0.5)
	}
	b.ReportMetric(p50.Microseconds(), "p50-us")
}

// BenchmarkFig5aMeasuredProgram measures the real Go implementation of the
// proxy's per-packet program (the empirical lower bound).
func BenchmarkFig5aMeasuredProgram(b *testing.B) {
	var p50 Duration
	for i := 0; i < b.N; i++ {
		p50 = Figure5aMeasured(50_000, 0.05).Quantile(0.5)
	}
	b.ReportMetric(p50.Microseconds(), "p50-us")
}

// BenchmarkFig5bEBPFUpperBound regenerates the stack-inclusive upper bound.
func BenchmarkFig5bEBPFUpperBound(b *testing.B) {
	var p50 Duration
	for i := 0; i < b.N; i++ {
		p50 = Figure5b(100_000, 3).Quantile(0.5)
	}
	b.ReportMetric(p50.Microseconds(), "p50-us")
}

// BenchmarkAblationNoEarlyFeedback tests §3 Insight #2: a streamlined
// proxy that merely relays (no local NACKs) should lose most of the
// benefit.
func BenchmarkAblationNoEarlyFeedback(b *testing.B) {
	for _, noEarly := range []bool{false, true} {
		name := "early-nack"
		if noEarly {
			name = "relay-only"
		}
		b.Run(name, func(b *testing.B) {
			benchIncast(b, IncastSpec{
				Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * MB,
				Runs: 1, Seed: 7, NoEarlyFeedback: noEarly,
			})
		})
	}
}

// BenchmarkAblationBaselineTrimming gives the baseline receiver-side
// trimming and NACKs: loss detection still pays the long loop.
func BenchmarkAblationBaselineTrimming(b *testing.B) {
	for _, trim := range []bool{false, true} {
		name := "drop-rto"
		if trim {
			name = "trim-nack"
		}
		b.Run(name, func(b *testing.B) {
			benchIncast(b, IncastSpec{
				Scheme: Baseline, Degree: 8, TotalBytes: 40 * MB,
				Runs: 1, Seed: 7, TrimReceiverDC: trim,
			})
		})
	}
}

// BenchmarkAblationInitialWindow sweeps the §4.1 IW = 1 BDP choice.
func BenchmarkAblationInitialWindow(b *testing.B) {
	for _, scale := range []float64{0.25, 1, 2} {
		b.Run(fmt.Sprintf("iw=%.2fxBDP", scale), func(b *testing.B) {
			benchIncast(b, IncastSpec{
				Scheme: Baseline, Degree: 4, TotalBytes: 40 * MB,
				Runs: 1, Seed: 7, IWScale: scale,
			})
		})
	}
}

// BenchmarkRelatedWorkGeminiCC compares the Gemini-like cross-DC
// congestion control (milder decrease for long-RTT flows) as a baseline
// fix-up: it helps steady-state utilization but, as the paper argues,
// "overlooks the more severe issue of network overload when windows are
// too large" — the proxy still wins.
func BenchmarkRelatedWorkGeminiCC(b *testing.B) {
	cases := []struct {
		name   string
		scheme Scheme
		gemini bool
	}{
		{"baseline-dctcp", Baseline, false},
		{"baseline-gemini", Baseline, true},
		{"proxy-streamlined", ProxyStreamlined, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchIncast(b, IncastSpec{Scheme: c.scheme, Degree: 8,
				TotalBytes: 40 * MB, Runs: 1, Seed: 7, Gemini: c.gemini})
		})
	}
}

// BenchmarkAblationPacketSpraying compares §4.1's per-packet spraying
// against per-flow ECMP hashing: hashing concentrates flows on fewer
// paths (collisions), spraying balances but reorders.
func BenchmarkAblationPacketSpraying(b *testing.B) {
	for _, spray := range []bool{true, false} {
		name := "per-flow-ecmp"
		if spray {
			name = "spraying"
		}
		b.Run(name, func(b *testing.B) {
			t := DefaultTopo()
			t.Spray = spray
			benchIncast(b, IncastSpec{Scheme: ProxyStreamlined, Degree: 8,
				TotalBytes: 40 * MB, Runs: 1, Seed: 7, Topo: t})
		})
	}
}

// BenchmarkFutureWork1InferringProxy compares the trimming-dependent
// streamlined proxy against the future-work #1 inferring proxy, which
// detects losses from sequence gaps without router support.
func BenchmarkFutureWork1InferringProxy(b *testing.B) {
	for _, s := range []Scheme{workload.ProxyStreamlined, workload.ProxyInferring} {
		b.Run(s.String(), func(b *testing.B) {
			var falseNacks uint64
			var lastICT Duration
			for i := 0; i < b.N; i++ {
				res, err := RunIncast(IncastSpec{Scheme: s, Degree: 8, TotalBytes: 40 * MB, Runs: 1, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				lastICT = res.ICT.Avg()
				falseNacks = res.Runs[0].ProxyFalseNacks
			}
			b.ReportMetric(lastICT.Milliseconds(), "ict-ms")
			b.ReportMetric(float64(falseNacks), "false-nacks")
		})
	}
}

// BenchmarkFutureWork2HookPlacement compares per-packet proxy overhead at
// each candidate hook (user space, TC eBPF, XDP, NIC offload).
func BenchmarkFutureWork2HookPlacement(b *testing.B) {
	for _, p := range hoststack.HookPlacements(0.05) {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var p50 Duration
			for i := 0; i < b.N; i++ {
				p50 = p.Measure(100_000, 7).Quantile(0.5)
			}
			b.ReportMetric(p50.Microseconds(), "p50-us")
		})
	}
}

// BenchmarkFutureWork3Orchestration runs two concurrent incasts: sharing
// one proxy vs orchestrated onto two proxies. Contention at a shared proxy
// down-ToR is exactly what future work #3's selection problem avoids.
func BenchmarkFutureWork3Orchestration(b *testing.B) {
	buildFlows := func(proxies []int) []FlowSpec {
		var flows []FlowSpec
		id := FlowID(1)
		for inc := 0; inc < 2; inc++ {
			proxyHost := proxies[inc%len(proxies)]
			for s := 0; s < 4; s++ {
				flows = append(flows, FlowSpec{
					ID:    id,
					Src:   HostRef{DC: 0, Host: inc*4 + s},
					Dst:   HostRef{DC: 1, Host: inc},
					Bytes: 10 * MB,
					Via:   &ProxyRef{Scheme: ProxyStreamlined, At: HostRef{DC: 0, Host: proxyHost}},
				})
				id++
			}
		}
		return flows
	}
	for _, tc := range []struct {
		name    string
		proxies []int
	}{
		{"shared-proxy", []int{63}},
		{"orchestrated-two-proxies", []int{62, 63}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var makespan Duration
			for i := 0; i < b.N; i++ {
				res, err := RunScenario(Scenario{Flows: buildFlows(tc.proxies), Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan.Milliseconds(), "makespan-ms")
		})
	}
}

// BenchmarkScenarioMoE measures a small cross-DC Mixture-of-Experts
// dispatch phase (the §2 motivating workload) under direct vs proxied
// routing.
func BenchmarkScenarioMoE(b *testing.B) {
	run := func(b *testing.B, proxied bool) {
		// 6 local + 2 remote experts at 8 MB/pair: each remote expert
		// receives a 48 MB cross-DC incast — past the Figure 2 (Right)
		// crossover, so proxying should pay off.
		cfg := workload.MoEConfig{
			LocalExperts:  6,
			RemoteExperts: 2,
			BytesPerPair:  8 * MB,
			Phases:        1,
			ProxyHost:     [2]int{63, 63},
		}
		if proxied {
			s := ProxyStreamlined
			cfg.ProxyCrossDC = &s
		}
		flows, _ := workload.MoEAllToAll(cfg, 1)
		var makespan Duration
		for i := 0; i < b.N; i++ {
			res, err := RunScenario(Scenario{Flows: flows, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			makespan = res.Makespan
		}
		b.ReportMetric(makespan.Milliseconds(), "makespan-ms")
	}
	b.Run("direct", func(b *testing.B) { run(b, false) })
	b.Run("proxied", func(b *testing.B) { run(b, true) })
}

// BenchmarkSweepSerialVsParallel measures the deterministic runner on a
// reduced Figure 2 (Left) sweep: the parallel=N wall-clock over parallel=1
// is the experiment-harness speedup (≈ min(N, cells, cores)× on idle
// hardware), while allocs/op tracks the pooled event path — outputs are
// byte-identical across rows by construction (TestFigureTableSerialVsParallel).
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	for _, par := range []int{1, 4} {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := SweepConfig{
				Degrees:       []int{2, 4, 8},
				Fig2LeftTotal: 8 * MB,
				Runs:          2,
				Seed:          1,
				Parallel:      par,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Figure2Left(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead quantifies what the observability layer costs a
// simulated incast: the registry's snapshot-time collectors should keep the
// always-on instrumented run within a few percent of the uninstrumented
// baseline, while full event tracing pays for its per-event appends.
// Compare ns/op across the three sub-benches (ISSUE budget: metrics ≤5%).
func BenchmarkObsOverhead(b *testing.B) {
	base := IncastSpec{Scheme: ProxyStreamlined, Degree: 4, TotalBytes: 8 * MB, Runs: 1, Seed: 7}
	cases := []struct {
		name string
		obs  *ObsConfig
	}{
		{"uninstrumented", &ObsConfig{Disable: true}},
		{"metrics", nil}, // the always-on default
		{"metrics+trace", &ObsConfig{Trace: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			spec := base
			spec.Obs = c.obs
			benchIncast(b, spec)
		})
	}
}
