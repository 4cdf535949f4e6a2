package incastproxy

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// testSweep is a miniature sweep (two degrees, 8 MB, 2 runs) that keeps the
// figure-path tests fast while exercising every scheme and multiple rows.
func testSweep() SweepConfig {
	return SweepConfig{
		Degrees:         []int{2, 4},
		Fig2LeftTotal:   8 * MB,
		Sizes:           []ByteSize{4 * MB, 8 * MB},
		Fig2RightDegree: 2,
		Latencies:       []Duration{Millisecond},
		Fig3Degree:      2,
		Fig3Total:       8 * MB,
		Runs:            2,
		Seed:            1,
		Parallel:        1,
	}
}

// Regression for the sweepPoint shared-seed bug: every sweep point and every
// scheme used to run with the raw cfg.Seed, so samples were correlated
// across the whole figure. Each cell must now get its own derived seed.
func TestSweepCellsGetDistinctSeeds(t *testing.T) {
	pts, err := Figure2Left(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]string, len(pts))
	for _, p := range pts {
		cell := p.Label + "/" + p.Scheme.String()
		if p.Seed == 0 {
			t.Fatalf("cell %s has no recorded seed", cell)
		}
		if prev, dup := seen[p.Seed]; dup {
			t.Fatalf("cells %s and %s share seed %d", prev, cell, p.Seed)
		}
		seen[p.Seed] = cell
	}
	// Two points of the same scheme must differ (the reported bug), and
	// two schemes of the same point must differ too.
	if pts[0].Seed == pts[len(pts)-1].Seed {
		t.Fatal("first and last sweep cells share a seed")
	}
}

// The tentpole acceptance bar: a figure table rendered from a parallel sweep
// must be byte-identical to the serial one.
func TestFigureTableSerialVsParallel(t *testing.T) {
	render := func(parallel int) []byte {
		cfg := testSweep()
		cfg.Parallel = parallel
		pts, err := Figure2Left(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFigureTable(&buf, "Figure 2 (Left)", pts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("figure tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("figure table unexpectedly empty")
	}
}

// Reductions still compute against the row's own baseline after the
// ordered-merge refactor (the backfill used to happen inside sweepPoint).
func TestSweepBaselineBackfill(t *testing.T) {
	pts, err := Figure2Right(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string]Duration)
	for _, p := range pts {
		if p.Scheme == Baseline {
			byLabel[p.Label] = p.Avg
		}
	}
	for _, p := range pts {
		if p.BaselineAvg != byLabel[p.Label] {
			t.Fatalf("point %s/%v: BaselineAvg %v, want row baseline %v",
				p.Label, p.Scheme, p.BaselineAvg, byLabel[p.Label])
		}
	}
}

// FigureAdaptive's table must carry all three compared schemes on every row
// — including the stress rows — with baselines backfilled, and the crash row
// must show the adaptive policy's failover beating the static scheme pinned
// behind the dead proxy.
func TestFigureAdaptiveComparesPolicies(t *testing.T) {
	cfg := testSweep()
	cfg.Sizes = []ByteSize{8 * MB}
	cfg.Fig2RightDegree = 4
	cfg.Fig3Total = 24 * MB
	cfg.Fig3Degree = 4
	cfg.Runs = 1
	cfg.Parallel = 0
	pts, err := FigureAdaptive(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const schemesPerRow = 3
	if len(pts) != 3*schemesPerRow { // one size + cross row + crash row
		t.Fatalf("got %d points, want %d", len(pts), 3*schemesPerRow)
	}
	byCell := map[string]Duration{}
	for _, p := range pts {
		if p.BaselineAvg <= 0 {
			t.Errorf("%s %v: baseline not backfilled", p.Label, p.Scheme)
		}
		byCell[p.Label+"/"+p.Scheme.String()] = p.Avg
	}
	crash := fmt.Sprintf("size=%v+crash", cfg.Fig3Total)
	ad, st := byCell[crash+"/adaptive"], byCell[crash+"/proxy-streamlined"]
	if ad == 0 || st == 0 {
		t.Fatalf("crash row incomplete: %v", byCell)
	}
	if ad >= st {
		t.Errorf("crash row: adaptive %v should beat static %v via failover", ad, st)
	}
}

// FigureAdaptive's size rows take their baseline and proxy-streamlined cells
// from Fig 2R's points instead of simulating them again: the table is the
// one it makes without them, and a cell it took carries what it was given.
func TestFigureAdaptiveReusesFig2RCells(t *testing.T) {
	cfg := testSweep()
	cfg.Sizes = []ByteSize{4 * MB}
	cfg.Fig3Total = 4 * MB
	cfg.Runs = 1
	fig2R, err := Figure2Right(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := FigureAdaptive(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := FigureAdaptive(cfg, fig2R)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, alone) {
		t.Fatalf("with Fig 2R's points:\n%+v\nwithout:\n%+v", reused, alone)
	}
	const marker = 12345 * Microsecond
	for i := range fig2R {
		if fig2R[i].Scheme == ProxyStreamlined {
			fig2R[i].Max = marker
		}
	}
	reused, err = FigureAdaptive(cfg, fig2R)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reused {
		if took := p.Max == marker; took != (p.Scheme == ProxyStreamlined && p.Label == "size=4MB") {
			t.Errorf("%s %v: max %v; only the size row's proxy-streamlined cell is Fig 2R's", p.Label, p.Scheme, p.Max)
		}
	}
}
