package incastproxy

import (
	"math"
	"strings"
	"testing"

	"incastproxy/internal/units"
)

// smallGrid is a 2x2x2-axis sweep small enough for CI: every figure axis has
// two points, one DES run per cell.
func smallGrid() SweepConfig {
	return SweepConfig{
		Degrees:         []int{2, 8},
		Fig2LeftTotal:   40 * MB,
		Sizes:           []ByteSize{10 * MB, 40 * MB},
		Fig2RightDegree: 4,
		Latencies:       []Duration{100 * units.Microsecond, units.Millisecond},
		Fig3Degree:      4,
		Fig3Total:       40 * MB,
		Runs:            1,
		Seed:            7,
	}
}

func TestFigureModelErrorSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	pts, err := FigureModelError(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	// 6 points x 3 schemes.
	if want := 18; len(pts) != want {
		t.Fatalf("got %d cells, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Avg <= 0 || p.P50 <= 0 || p.P99 <= 0 || p.ModelICT <= 0 {
			t.Fatalf("%s %v: empty cell %+v", p.Label, p.Scheme, p)
		}
		if p.Regime == "" {
			t.Fatalf("%s %v: missing regime", p.Label, p.Scheme)
		}
		for _, e := range []float64{signedRelErr(p.Avg, p.ModelICT), signedRelErr(p.P50, p.ModelP50), signedRelErr(p.P99, p.ModelP99)} {
			if math.IsNaN(e) {
				t.Fatalf("%s %v: NaN error column %+v", p.Label, p.Scheme, p)
			}
		}
	}
	// The table is a view of the figures' own cells: its degree rows come
	// first, with the seeds and measurements Figure2Left reports, and their
	// model column is what a Fast Figure2Left reports for the same cell.
	fig2l, err := Figure2Left(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	fast := smallGrid()
	fast.Fast = true
	fastFig2l, err := Figure2Left(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig2l) != len(fastFig2l) || len(fig2l) >= len(pts) {
		t.Fatalf("Figure2Left has %d cells (%d fast), model-error table %d", len(fig2l), len(fastFig2l), len(pts))
	}
	for i, f := range fig2l {
		p := pts[i]
		cell := f.Label + "/" + f.Scheme.String()
		if p.Label != f.Label || p.Scheme != f.Scheme || p.Seed != f.Seed || p.Avg != f.Avg {
			t.Errorf("%s: model-error row %s/%v seed %d avg %v, Figure2Left seed %d avg %v",
				cell, p.Label, p.Scheme, p.Seed, p.Avg, f.Seed, f.Avg)
		}
		if p.ModelICT != fastFig2l[i].Avg {
			t.Errorf("%s: model ICT %v, fast Figure2Left avg %v", cell, p.ModelICT, fastFig2l[i].Avg)
		}
	}
	// The whole grid sits inside the loosest validated bound (the 100 us
	// streamlined band; see internal/model's validation tests for the
	// per-regime bounds).
	if worst := MaxAbsModelError(pts); worst > 0.60 {
		t.Errorf("worst ICT error %.1f%% exceeds the validated 60%% envelope", 100*worst)
	}
	var sb strings.Builder
	if err := WriteModelErrorTable(&sb, "sim vs model", pts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# sim vs model", "degree=2", "size=40MB", "latency=1ms", "regime"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestFastSweepMatchesModel pins the fast path's contract: a Fast sweep
// returns one model evaluation per cell (no spread), agrees with the same
// grid's DES shape on the headline comparisons, and costs effectively
// nothing.
func TestFastSweepMatchesModel(t *testing.T) {
	cfg := QuickSweep()
	cfg.Fast = true
	for name, run := range map[string]func(SweepConfig) ([]FigurePoint, error){
		"fig2l": Figure2Left, "fig2r": Figure2Right, "fig3": Figure3,
	} {
		pts, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pts) == 0 {
			t.Fatalf("%s: no points", name)
		}
		for _, p := range pts {
			if p.Avg <= 0 || p.Min != p.Avg || p.Max != p.Avg {
				t.Fatalf("%s %s %v: fast cells must be spread-free: %+v", name, p.Label, p.Scheme, p)
			}
			if p.ConfigHash != 0 {
				t.Fatalf("%s %s: fast cells have no manifest hash", name, p.Label)
			}
		}
	}
	// Figure 2 (Left) at 40 MB: the streamlined proxy must beat the
	// baseline at every degree >= 2 — the paper's headline, which the model
	// must reproduce for the fast table to be worth printing.
	pts, err := Figure2Left(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[Scheme]map[string]Duration{}
	for _, p := range pts {
		if byScheme[p.Scheme] == nil {
			byScheme[p.Scheme] = map[string]Duration{}
		}
		byScheme[p.Scheme][p.Label] = p.Avg
	}
	for label, base := range byScheme[Baseline] {
		if label == "degree=1" {
			continue
		}
		if prox := byScheme[ProxyStreamlined][label]; prox >= base {
			t.Errorf("%s: fast model says streamlined %v >= baseline %v", label, prox, base)
		}
	}
	// Baseline backfill must work so reductions print.
	for _, p := range pts {
		if p.BaselineAvg <= 0 {
			t.Errorf("%s %v: missing baseline backfill", p.Label, p.Scheme)
		}
	}
}

// TestFastSweepRejectsAdaptive: the model cannot evaluate mid-epoch
// re-steering, so a fast sweep that includes SchemeAdaptive must fail
// loudly instead of printing a silently-wrong row.
func TestFastSweepRejectsAdaptive(t *testing.T) {
	cfg := QuickSweep()
	cfg.Fast = true
	if _, err := FigureAdaptive(cfg); err == nil {
		t.Fatal("fast FigureAdaptive must error")
	}
}
