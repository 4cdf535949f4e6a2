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

// sweepTable evaluates table tab of cfg alone.
func sweepTable(t testing.TB, cfg SweepConfig, tab Table) []FigurePoint {
	t.Helper()
	figs, err := Sweep(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	return figs[tab]
}

// allTables are the four sweep tables, staticTables the three figures.
var (
	allTables    = []Table{Fig2Left, Fig2Right, Fig3, Adaptive}
	staticTables = allTables[:3:3]
)

// Regression for the sweepPoint shared-seed bug: every sweep point and every
// scheme used to run with the raw cfg.Seed, so samples were correlated
// across the whole figure. A cell's seed derives from its config hash, so
// the (point, scheme) cells of one table must have distinct hashes, and with
// them distinct streams.
func TestSweepCellsGetDistinctSeeds(t *testing.T) {
	for _, tab := range allTables {
		cells, layout := plan(testSweep(), []Table{tab})
		hashes, seeds := map[uint64]bool{}, map[int64]bool{}
		for _, c := range cells {
			hashes[c.hash], seeds[c.spec.Seed] = true, true
		}
		if n := len(layout[0]); n == 0 || len(cells) != n || len(hashes) != n || len(seeds) != n {
			t.Errorf("table %d: %d cells, %d distinct configurations, %d hashes, %d seeds",
				tab, n, len(cells), len(hashes), len(seeds))
		}
	}
}

// The paper grid's four tables hold 66 cells and 52 configurations: the
// default point (degree 4, 100 MB, 1 ms) is on all three figures' axes, and
// the adaptive table's size rows run Fig 2R's baseline and streamlined cells.
func TestPaperSweepPlansEachConfigurationOnce(t *testing.T) {
	cells, layout := plan(PaperSweep(), allTables)
	var total int
	for _, l := range layout {
		total += len(l)
	}
	if total != 66 || len(cells) != 52 {
		t.Fatalf("%d cells in %d configurations, want 66 in 52", total, len(cells))
	}
}

// A configuration several tables share is one cell: on testSweep, degree 2
// at 8 MB and 1 ms is Fig 2L's degree=2, Fig 2R's size=8MB and Fig 3's
// latency=1ms row, and the adaptive table's size=8MB baseline and
// streamlined cells, and reads the same in each. A table evaluated alone is
// the table evaluated beside the other three, and every DES cell's
// manifest carries the config hash it was keyed by before it ran.
func TestSharedConfigurationIsOneCell(t *testing.T) {
	cfg := testSweep()
	cfg.Parallel = 0
	figs, err := Sweep(cfg, allTables...)
	if err != nil {
		t.Fatal(err)
	}
	cells, layout := plan(cfg, allTables)
	for i, tab := range allTables {
		for j, p := range figs[tab] {
			if want := cells[layout[i][j]].hash; p.ConfigHash != want {
				t.Errorf("table %d %s %v: manifest config hash %016x, keyed by %016x", tab, p.Label, p.Scheme, p.ConfigHash, want)
			}
		}
		if alone := sweepTable(t, cfg, tab); !reflect.DeepEqual(alone, figs[tab]) {
			t.Errorf("table %d alone:\n%+v\nbeside the others:\n%+v", tab, alone, figs[tab])
		}
	}
	measured := func(tab Table, label string, s Scheme) FigurePoint {
		for _, p := range figs[tab] {
			if p.Label == label && p.Scheme == s {
				p.Label, p.X, p.BaselineAvg = "", 0, 0
				return p
			}
		}
		t.Fatalf("table %d has no %v cell at %s", tab, s, label)
		return FigurePoint{}
	}
	for _, s := range Schemes() {
		want := measured(Fig2Left, "degree=2", s)
		if want.Avg <= 0 {
			t.Fatalf("degree=2 %v: empty cell", s)
		}
		for _, got := range []FigurePoint{measured(Fig2Right, "size=8MB", s), measured(Fig3, "latency=1ms", s)} {
			if got != want {
				t.Errorf("%v: %+v, Fig 2L reads %+v", s, got, want)
			}
		}
		if s != ProxyNaive {
			if got := measured(Adaptive, "size=8MB", s); got != want {
				t.Errorf("adaptive %v: %+v, Fig 2L reads %+v", s, got, want)
			}
		}
	}
}

// The tentpole acceptance bar: a figure table rendered from a parallel sweep
// must be byte-identical to the serial one.
func TestFigureTableSerialVsParallel(t *testing.T) {
	render := func(parallel int) []byte {
		cfg := testSweep()
		cfg.Parallel = parallel
		var buf bytes.Buffer
		if err := WriteFigureTable(&buf, "Figure 2 (Left)", sweepTable(t, cfg, Fig2Left)); err != nil {
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
	pts := sweepTable(t, testSweep(), Fig2Right)
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

// The adaptive table must carry all three compared schemes on every row —
// including the stress rows — with baselines backfilled, and the crash row
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
	pts := sweepTable(t, cfg, Adaptive)
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
