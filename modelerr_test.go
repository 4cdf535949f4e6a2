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

// tableRows returns the whitespace-split cells of a rendered table's data
// rows, skipping its title ("# ...") and header ("point ...") lines.
func tableRows(out string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "#" && f[0] != "point" {
			rows = append(rows, f)
		}
	}
	return rows
}

// The model-error table is a view of the figures' own cells: each row is the
// matching Fig2Left, Fig2Right or Fig3 cell (same label, scheme and measured
// average), and its model column is what a Fast sweep of the same grid
// reports for that cell, whose config hash is the DES cell's manifest's.
func TestModelErrorTableSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	fastGrid := smallGrid()
	fastGrid.Fast = true
	figs, err := Sweep(smallGrid(), staticTables...)
	if err != nil {
		t.Fatal(err)
	}
	fastFigs, err := Sweep(fastGrid, staticTables...)
	if err != nil {
		t.Fatal(err)
	}
	var pts, fast []FigurePoint
	var figTables strings.Builder
	for _, tab := range staticTables {
		if err := WriteFigureTable(&figTables, "figure", figs[tab]); err != nil {
			t.Fatal(err)
		}
		pts, fast = append(pts, figs[tab]...), append(fast, fastFigs[tab]...)
	}
	// 6 points x 3 schemes.
	if want := 18; len(pts) != want || len(fast) != want {
		t.Fatalf("got %d cells (%d fast), want %d", len(pts), len(fast), want)
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
	var sb strings.Builder
	if err := WriteModelErrorTable(&sb, "sim vs model", pts); err != nil {
		t.Fatal(err)
	}
	rows, figRows := tableRows(sb.String()), tableRows(figTables.String())
	if len(rows) != len(pts) || len(figRows) != len(pts) {
		t.Fatalf("model-error table has %d rows, figure tables %d, want %d", len(rows), len(figRows), len(pts))
	}
	for i, p := range pts {
		// point scheme regime ict(sim) ict(model) ... beside point scheme avg ...
		row, fig := rows[i], figRows[i]
		cell := p.Label + "/" + p.Scheme.String()
		if row[0] != fig[0] || row[1] != fig[1] || row[3] != fig[2] {
			t.Errorf("%s: model-error row %v, figure row %v", cell, row, fig)
		}
		if f := fast[i]; f.Label != p.Label || f.Scheme != p.Scheme || f.ConfigHash != p.ConfigHash {
			t.Errorf("%s config %016x: fast cell %s/%v config %016x", cell, p.ConfigHash, f.Label, f.Scheme, f.ConfigHash)
		}
		if row[4] != fast[i].Avg.String() {
			t.Errorf("%s: model ICT %s, fast avg %v", cell, row[4], fast[i].Avg)
		}
	}
	// The whole grid sits inside the loosest validated bound (the
	// cross-traffic cell's; see internal/model's validation tests for the
	// per-regime bounds).
	if worst := MaxAbsModelError(pts); worst > 0.30 {
		t.Errorf("worst ICT error %.1f%% exceeds the validated 30%% envelope", 100*worst)
	}
	// Wherever the DES's fastest scheme wins by 2%, the model picks it too.
	if agree, counted, misses := ModelRanking(pts); counted == 0 || agree != counted {
		t.Errorf("model's fastest scheme is the DES's at %d of %d points; disagrees at %v", agree, counted, misses)
	}
}

// TestFastSweepMatchesModel pins the fast path's contract: a Fast sweep
// returns one model evaluation per cell (no spread) keyed by the spec's
// config hash, agrees with the same grid's DES shape on the headline
// comparisons, and costs effectively nothing.
func TestFastSweepMatchesModel(t *testing.T) {
	cfg := PaperSweep()
	cfg.Fast = true
	figs, err := Sweep(cfg, staticTables...)
	if err != nil {
		t.Fatal(err)
	}
	cells, layout := plan(cfg, staticTables)
	for i, tab := range staticTables {
		pts := figs[tab]
		if len(pts) == 0 {
			t.Fatalf("table %d: no points", tab)
		}
		for j, p := range pts {
			if p.Avg <= 0 || p.Min != p.Avg || p.Max != p.Avg {
				t.Fatalf("table %d %s %v: fast cells must be spread-free: %+v", tab, p.Label, p.Scheme, p)
			}
			if want := cells[layout[i][j]].hash; p.ConfigHash != want {
				t.Fatalf("table %d %s %v: config hash %016x, want its spec's %016x", tab, p.Label, p.Scheme, p.ConfigHash, want)
			}
		}
	}
	// Figure 2 (Left) at 100 MB: the streamlined proxy must beat the
	// baseline at every degree — the paper's headline, which the model must
	// reproduce for the fast table to be worth printing.
	pts := figs[Fig2Left]
	byScheme := map[Scheme]map[string]Duration{}
	for _, p := range pts {
		if byScheme[p.Scheme] == nil {
			byScheme[p.Scheme] = map[string]Duration{}
		}
		byScheme[p.Scheme][p.Label] = p.Avg
	}
	for label, base := range byScheme[Baseline] {
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
	cfg := PaperSweep()
	cfg.Fast = true
	if _, err := Sweep(cfg, Adaptive); err == nil {
		t.Fatal("a fast adaptive table must error")
	}
}
