package incastproxy

import (
	"strings"
	"testing"

	"incastproxy/internal/units"
)

func TestCompareSchemesHeadlineResult(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cmp, err := CompareSchemes(IncastSpec{Degree: 8, TotalBytes: 40 * MB, Runs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{ProxyNaive, ProxyStreamlined} {
		if red := cmp.Reduction(s); red < 0.30 {
			t.Errorf("%v reduction = %.1f%%, want >= 30%%", s, red*100)
		}
	}
	if cmp.ICT(Baseline) <= 0 {
		t.Fatal("missing baseline ICT")
	}
}

func TestFigure2RightCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := SweepConfig{
		Sizes:           []ByteSize{10 * MB, 40 * MB},
		Fig2RightDegree: 4,
		Runs:            1,
		Seed:            3,
	}
	pts, err := Figure2Right(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byPoint := map[string]map[Scheme]FigurePoint{}
	for _, p := range pts {
		if byPoint[p.Label] == nil {
			byPoint[p.Label] = map[Scheme]FigurePoint{}
		}
		byPoint[p.Label][p.Scheme] = p
	}
	// Small incast: all three schemes roughly on par (within 2x).
	small := byPoint["size=10MB"]
	if r := small[ProxyStreamlined].Reduction(); r > 0.5 || r < -1.0 {
		t.Errorf("10MB: streamlined reduction %.2f, expected near parity", r)
	}
	// Large incast: clear proxy win.
	large := byPoint["size=40MB"]
	if r := large[ProxyStreamlined].Reduction(); r < 0.3 {
		t.Errorf("40MB: streamlined reduction %.2f, want > 0.3", r)
	}
	if r := large[ProxyNaive].Reduction(); r < 0.3 {
		t.Errorf("40MB: naive reduction %.2f, want > 0.3", r)
	}
}

func TestFigure3BenefitGrowsWithLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := SweepConfig{
		Latencies:  []Duration{100 * Microsecond, Millisecond},
		Fig3Degree: 4,
		Fig3Total:  40 * MB,
		Runs:       1,
		Seed:       3,
	}
	pts, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var redLow, redHigh float64
	for _, p := range pts {
		if p.Scheme != ProxyStreamlined {
			continue
		}
		if p.Label == "latency=100us" {
			redLow = p.Reduction()
		} else {
			redHigh = p.Reduction()
		}
	}
	if redHigh <= redLow {
		t.Errorf("reduction must grow with latency: 100us=%.2f 1ms=%.2f", redLow, redHigh)
	}
}

func TestFigure2LeftBenefitGrowsWithDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := SweepConfig{
		Degrees:       []int{2, 16},
		Fig2LeftTotal: 40 * MB,
		Runs:          1,
		Seed:          3,
	}
	pts, err := Figure2Left(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := MeanReduction(pts, ProxyStreamlined); got <= 0 {
		t.Errorf("mean streamlined reduction %.2f, want positive", got)
	}
	if got := MeanReduction(pts, ProxyNaive); got <= 0 {
		t.Errorf("mean naive reduction %.2f, want positive", got)
	}
}

func TestWriteFigureTable(t *testing.T) {
	pts := []FigurePoint{
		{Label: "degree=4", X: 4, Scheme: Baseline, Avg: 50 * Millisecond, BaselineAvg: 50 * Millisecond},
		{Label: "degree=4", X: 4, Scheme: ProxyStreamlined, Avg: 15 * Millisecond, BaselineAvg: 50 * Millisecond},
	}
	var sb strings.Builder
	if err := WriteFigureTable(&sb, "Fig 2 (Left)", pts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 2 (Left)", "baseline", "proxy-streamlined", "70.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4And5Quantiles(t *testing.T) {
	f4 := Figure4(50_000, 1)
	if p99 := f4.Quantile(0.99); p99 < 200*Microsecond || p99 > 600*Microsecond {
		t.Fatalf("Fig4 p99 = %v", p99)
	}
	f5a := Figure5a(50_000, 0.1, 2)
	if med := f5a.Quantile(0.5); med > units.Microsecond {
		t.Fatalf("Fig5a median = %v, want sub-us", med)
	}
	f5b := Figure5b(50_000, 3)
	if med := f5b.Quantile(0.5); med < 100*Microsecond {
		t.Fatalf("Fig5b median = %v, want hundreds of us", med)
	}
	var sb strings.Builder
	if err := WriteCDFTable(&sb, "Fig 4", f4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "p99") {
		t.Fatal("CDF table missing p99 row")
	}
}

func TestFigure5aMeasuredIsFast(t *testing.T) {
	c := Figure5aMeasured(10_000, 0.05)
	if med := c.Quantile(0.5); med > 5*Microsecond {
		t.Fatalf("measured program median %v", med)
	}
}

func TestMeanReductionEmpty(t *testing.T) {
	if MeanReduction(nil, ProxyNaive) != 0 {
		t.Fatal("empty points should give 0")
	}
}

func TestSweepDefaults(t *testing.T) {
	p := PaperSweep()
	if p.Fig2LeftTotal != 100*MB || p.Runs != 5 || len(p.Latencies) != 6 {
		t.Fatalf("paper sweep: %+v", p)
	}
	q := QuickSweep()
	if q.Fig2LeftTotal != 40*MB || len(q.Degrees) == 0 {
		t.Fatalf("quick sweep: %+v", q)
	}
}

func TestDefaultTopoIsPaperScale(t *testing.T) {
	tp := DefaultTopo()
	if tp.Spines != 8 || tp.Backbones != 64 || tp.LinkRate != 100*Gbps {
		t.Fatalf("default topo: %+v", tp)
	}
}
