package incastproxy

import (
	"reflect"
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
	pts := sweepTable(t, cfg, Fig2Right)
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
	pts := sweepTable(t, cfg, Fig3)
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
	pts := sweepTable(t, cfg, Fig2Left)
	at := func(degree int, s Scheme) float64 {
		for _, p := range pts {
			if p.X == float64(degree) && p.Scheme == s {
				return p.Reduction()
			}
		}
		t.Fatalf("no %v cell at degree %d", s, degree)
		return 0
	}
	// At 40 MB and seed 3: 76.01% -> 93.28% naive, 76.53% -> 92.55%
	// streamlined; seeds 1 to 8 read the same to within 0.01 points.
	for _, s := range []Scheme{ProxyNaive, ProxyStreamlined} {
		if lo, hi := at(2, s), at(16, s); lo <= 0 || hi <= lo {
			t.Errorf("%v reduction at degree 2 is %.2f%% and at 16 %.2f%%, want positive and growing", s, lo*100, hi*100)
		}
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

// PaperSweep is DESIGN §4's grid exactly: the only one `figures` runs.
func TestSweepDefaults(t *testing.T) {
	want := SweepConfig{
		Degrees:         []int{2, 4, 8, 16, 32, 63},
		Fig2LeftTotal:   100 * MB,
		Sizes:           []ByteSize{20 * MB, 50 * MB, 100 * MB, 200 * MB},
		Fig2RightDegree: 4,
		Latencies: []Duration{Microsecond, 10 * Microsecond, 100 * Microsecond,
			Millisecond, 10 * Millisecond, 100 * Millisecond},
		Fig3Degree: 4,
		Fig3Total:  100 * MB,
		Runs:       5,
		Seed:       1,
	}
	if got := PaperSweep(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paper sweep:\n got %+v\nwant %+v", got, want)
	}
}

func TestDefaultTopoIsPaperScale(t *testing.T) {
	tp := DefaultTopo()
	if tp.Spines != 8 || tp.Backbones != 64 || tp.LinkRate != 100*Gbps {
		t.Fatalf("default topo: %+v", tp)
	}
}
