package incastproxy

import (
	"fmt"
	"io"
	"text/tabwriter"

	"incastproxy/internal/hoststack"
	"incastproxy/internal/model"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/stats"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// FigurePoint is one (x, scheme) cell of a sweep: the packet-level
// simulator's measurement over the sweep's repeated runs beside the
// analytical model's prediction for the same spec. Every sweep table (the
// figures, the sim-vs-model error table, the fast tables) reads this one
// type.
type FigurePoint struct {
	// Label describes the x-coordinate ("degree=8", "size=100MB",
	// "latency=1ms").
	Label string
	// X is the numeric x-coordinate (degree, bytes, or latency in us).
	X      float64
	Scheme Scheme

	// Avg, Min and Max summarize the incast completion time over the runs.
	Avg, Min, Max Duration
	// P50 and P99 are the per-run flow-FCT quantiles averaged over the
	// runs, the way Avg averages completion times.
	P50, P99 Duration
	// BaselineAvg carries the matching baseline average so reductions
	// can be computed per point.
	BaselineAvg Duration
	// ConfigHash fingerprints the exact spec that produced this point (a
	// DES cell's from its run manifest, a fast cell's from the spec), so
	// figure rows are traceable to a reproducible configuration. The cell's
	// base seed derives from it and the sweep seed.
	ConfigHash uint64

	// ModelICT, ModelP50 and ModelP99 are internal/model's prediction for
	// the cell's spec, and Regime the closed-form branch that produced it.
	// SchemeAdaptive cells carry none: the model does not cover mid-epoch
	// re-steering.
	ModelICT, ModelP50, ModelP99 Duration
	Regime                       string
}

// Reduction returns this point's relative ICT reduction versus baseline.
func (p FigurePoint) Reduction() float64 { return stats.Reduction(p.BaselineAvg, p.Avg) }

// SweepConfig parameterizes the figure sweeps. PaperSweep reproduces §4's
// exact settings; tests build smaller grids by hand.
type SweepConfig struct {
	// Degrees is Figure 2 (Left)'s x-axis (fixed total size).
	Degrees []int
	// Fig2LeftTotal is the fixed total for the degree sweep.
	Fig2LeftTotal ByteSize

	// Sizes is Figure 2 (Right)'s x-axis (fixed degree).
	Sizes []ByteSize
	// Fig2RightDegree is the fixed degree for the size sweep.
	Fig2RightDegree int

	// Latencies is Figure 3's x-axis: the long-haul link propagation
	// delay (fixed degree and total size).
	Latencies  []Duration
	Fig3Degree int
	Fig3Total  ByteSize

	Runs int
	Seed int64

	// Parallel fans the sweep's cells across worker goroutines: 0 uses one
	// worker per CPU (sweeps have no user hooks, so this is always safe), 1
	// forces serial execution, N > 1 uses N workers. A cell's seed derives
	// from its configuration and results merge in row order, so figure
	// tables are byte-identical at any setting.
	Parallel int

	// Fast skips the packet-level simulator and fills every cell's measured
	// columns from the analytical model's prediction: microseconds per cell
	// instead of seconds, at the model's validated error bounds (see
	// `figures -fig modelerr` for the sim-vs-model table). Fast cells have
	// no run-to-run spread (Min == Avg == Max) and cannot evaluate
	// SchemeAdaptive — a fast sweep that includes it fails loudly.
	Fast bool
}

// PaperSweep returns §4's settings: 100 MB totals, degree 4 for the size
// and latency sweeps, 5 runs per point.
func PaperSweep() SweepConfig {
	return SweepConfig{
		Degrees:         []int{2, 4, 8, 16, 32, 63},
		Fig2LeftTotal:   100 * MB,
		Sizes:           []ByteSize{20 * MB, 50 * MB, 100 * MB, 200 * MB},
		Fig2RightDegree: 4,
		Latencies: []Duration{
			units.Microsecond, 10 * units.Microsecond, 100 * units.Microsecond,
			units.Millisecond, 10 * units.Millisecond, 100 * units.Millisecond,
		},
		Fig3Degree: 4,
		Fig3Total:  100 * MB,
		Runs:       5,
		Seed:       1,
	}
}

// Table names one of the four sweep tables Sweep evaluates.
type Table int

// The sweep tables. The three figures run each row under the three static
// schemes, Adaptive under Baseline, ProxyStreamlined and SchemeAdaptive.
const (
	// Fig2Left is Figure 2 (Left): fixed total size, varying the degree.
	Fig2Left Table = iota
	// Fig2Right is Figure 2 (Right): fixed degree, varying the total size.
	Fig2Right
	// Fig3 is Figure 3: fixed degree and size, varying the long-haul link
	// latency (log-log in the paper).
	Fig3
	// Adaptive compares the adaptive control plane against both static
	// choices: the Figure 2 (Right) size axis (where the right answer flips
	// from direct to proxy partway along), then two stress rows at the
	// sweep's Fig3Total size — bursty cross traffic parked on the proxy ToR
	// (staying direct is right) and a proxy crash mid-epoch (failing over is
	// right). Static schemes run each row unchanged, so every cell answers
	// "what would this policy have cost here".
	Adaptive
)

// sweepPoint is one x-coordinate of a sweep table; customize stamps the
// coordinate onto the spec.
type sweepPoint struct {
	label     string
	x         float64
	customize func(*IncastSpec)
}

// rows returns table t's x-coordinates and the schemes each row runs.
func (cfg SweepConfig) rows(t Table) ([]sweepPoint, []Scheme) {
	var points []sweepPoint
	switch t {
	case Fig2Left:
		for _, deg := range cfg.Degrees {
			points = append(points, sweepPoint{fmt.Sprintf("degree=%d", deg), float64(deg), func(sp *IncastSpec) {
				sp.Degree, sp.TotalBytes = deg, cfg.Fig2LeftTotal
			}})
		}
	case Fig2Right, Adaptive:
		for _, size := range cfg.Sizes {
			points = append(points, sweepPoint{fmt.Sprintf("size=%v", size), float64(size), func(sp *IncastSpec) {
				sp.Degree, sp.TotalBytes = cfg.Fig2RightDegree, size
			}})
		}
	case Fig3:
		for _, lat := range cfg.Latencies {
			points = append(points, sweepPoint{fmt.Sprintf("latency=%v", lat), lat.Microseconds(), func(sp *IncastSpec) {
				sp.Degree, sp.TotalBytes, sp.Topo = cfg.Fig3Degree, cfg.Fig3Total, DefaultTopo()
				sp.Topo.InterDelay = lat
			}})
		}
	}
	if t != Adaptive {
		return points, Schemes()
	}
	stress := func(label string, customize func(*IncastSpec)) sweepPoint {
		return sweepPoint{fmt.Sprintf("size=%v+%s", cfg.Fig3Total, label), float64(cfg.Fig3Total), func(sp *IncastSpec) {
			sp.Degree, sp.TotalBytes = cfg.Fig2RightDegree, cfg.Fig3Total
			customize(sp)
		}}
	}
	points = append(points, stress("cross", func(sp *IncastSpec) {
		sp.CrossTraffic = workload.CrossTrafficSpec{Flows: 2, Bytes: 40 * MB}
		sp.IncastDelay = 2 * units.Millisecond
	}), stress("crash", func(sp *IncastSpec) {
		sp.ProxyCrashAt = units.Millisecond
		sp.ProxyRestartAfter = 50 * units.Millisecond
		sp.MaxSimTime = 2 * units.Second
	}))
	return points, []Scheme{Baseline, ProxyStreamlined, SchemeAdaptive}
}

// sweepCell is one configuration of an evaluation: its spec, seeded from
// its config hash, and the first row that asked for it, to name it by.
type sweepCell struct {
	spec  IncastSpec
	hash  uint64
	label string
}

// plan lays out the (row, scheme) cells of tables: cells holds each
// distinct configuration once, and layout[i] is tables[i]'s cells as
// indexes into it, rows in order and schemes within each row.
//
// A cell's key is its spec's config hash (with the sweep seed, one per
// evaluation), and its seed derives from that key, not from where the cell
// sits: one configuration on several axes is one cell with one stream, and
// no two configurations share a stream.
func plan(cfg SweepConfig, tables []Table) (cells []sweepCell, layout [][]int) {
	index := make(map[uint64]int)
	layout = make([][]int, len(tables))
	for i, t := range tables {
		points, schemes := cfg.rows(t)
		for _, pt := range points {
			for _, s := range schemes {
				// The cells themselves are the unit of parallelism; their
				// inner runs stay serial so the pool is not oversubscribed.
				sp := IncastSpec{Scheme: s, Runs: max(cfg.Runs, 1), Parallel: 1}
				pt.customize(&sp)
				h := sp.ConfigHash()
				c, ok := index[h]
				if !ok {
					c, index[h] = len(cells), len(cells)
					sp.Seed = rng.DeriveSeed(cfg.Seed, int64(h))
					cells = append(cells, sweepCell{sp, h, pt.label})
				}
				layout[i] = append(layout[i], c)
			}
		}
	}
	return cells, layout
}

// Sweep evaluates the given tables of cfg in one pass: it simulates each
// distinct configuration among their cells once, fanned across the sweep's
// worker pool, and returns each table's points in row order (rows in axis
// order, schemes within each row), each carrying its row's baseline
// average. The output is byte-identical however many workers ran it, and a
// table reads the same alone as beside the others.
func Sweep(cfg SweepConfig, tables ...Table) (map[Table][]FigurePoint, error) {
	cells, layout := plan(cfg, tables)
	evaluated, err := runner.Map(cfg.Parallel, len(cells), func(i int) (FigurePoint, error) {
		return evalCell(cells[i], cfg.Fast)
	})
	if err != nil {
		return nil, err
	}
	figs := make(map[Table][]FigurePoint, len(tables))
	for i, t := range tables {
		points, schemes := cfg.rows(t)
		n, pts := len(schemes), make([]FigurePoint, 0, len(layout[i]))
		for j, c := range layout[i] {
			p := evaluated[c]
			p.Label, p.X = points[j/n].label, points[j/n].x
			for _, b := range layout[i][j-j%n:][:n] { // the cells of p's row
				if evaluated[b].Scheme == Baseline {
					p.BaselineAvg = evaluated[b].Avg
				}
			}
			pts = append(pts, p)
		}
		figs[t] = pts
	}
	return figs, nil
}

// evalCell measures one configuration: the analytical model's prediction,
// and the DES's measurement or, under fast, the prediction copied into the
// measured columns. Sweep stamps the row's label, x and baseline.
func evalCell(c sweepCell, fast bool) (FigurePoint, error) {
	sp := c.spec
	p := FigurePoint{Scheme: sp.Scheme}
	// Adaptive has no prediction; under fast, FromSpec refuses it.
	if sp.Scheme != SchemeAdaptive || fast {
		prm, err := model.FromSpec(sp)
		if err != nil {
			return FigurePoint{}, fmt.Errorf("%s %v (model): %w", c.label, sp.Scheme, err)
		}
		pred := model.Predict(prm)
		p.ModelICT, p.ModelP50, p.ModelP99 = pred.ICT, pred.P50, pred.P99
		p.Regime = pred.Regime.String()
	}
	if fast {
		p.Avg, p.Min, p.Max = p.ModelICT, p.ModelICT, p.ModelICT
		p.P50, p.P99 = p.ModelP50, p.ModelP99
		p.ConfigHash = c.hash
		return p, nil
	}
	res, err := workload.Run(sp)
	if err != nil {
		return FigurePoint{}, fmt.Errorf("%s %v: %w", c.label, sp.Scheme, err)
	}
	p.Avg, p.Min, p.Max = res.ICT.Avg(), res.ICT.Min(), res.ICT.Max()
	for _, rr := range res.Runs {
		p.P50 += rr.FlowFCT.P50
		p.P99 += rr.FlowFCT.P99
	}
	n := Duration(len(res.Runs))
	p.P50, p.P99, p.ConfigHash = p.P50/n, p.P99/n, res.Runs[0].Manifest.ConfigHash
	return p, nil
}

// MeanReduction averages a proxy scheme's per-point reductions across a
// figure (how §4.2 quotes "on average" numbers); 0 when it has no such cell.
func MeanReduction(pts []FigurePoint, s Scheme) float64 {
	m, _ := meanReduction(pts, "", s)
	return m
}

// meanReduction averages scheme s's reductions over the cells at label, or
// over the whole figure when label is "", and fails when there is no cell.
func meanReduction(pts []FigurePoint, label string, s Scheme) (float64, error) {
	var sum float64
	var n int
	for _, p := range pts {
		if p.Scheme == s && p.BaselineAvg > 0 && (label == "" || p.Label == label) {
			sum += p.Reduction()
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no %v cell at %q", s, label)
	}
	return sum / float64(n), nil
}

// WriteFigureTable renders sweep points as an aligned table (one row per
// x-coordinate and scheme), the format cmd/figures prints.
func WriteFigureTable(w io.Writer, title string, pts []FigurePoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s\n", title)
	fmt.Fprintln(tw, "point\tscheme\tavg\tmin\tmax\treduction\tconfig")
	for _, p := range pts {
		red := "-"
		if p.Scheme != Baseline && p.BaselineAvg > 0 {
			red = fmt.Sprintf("%.2f%%", p.Reduction()*100)
		}
		cfg := "-"
		if p.ConfigHash != 0 {
			cfg = fmt.Sprintf("%08x", p.ConfigHash>>32)
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%s\t%s\n", p.Label, p.Scheme, p.Avg, p.Min, p.Max, red, cfg)
	}
	return tw.Flush()
}

// CDF re-exports the empirical CDF type used by the host-stack figures.
type CDF = stats.CDF

// Figure4 regenerates the user-space proxy per-packet latency CDF
// (p99 ~ 359 us in §5).
func Figure4(packets int, seed int64) *CDF {
	return hoststack.UserSpaceProxy().Measure(packets, seed)
}

// Figure5a regenerates the eBPF lower-bound CDF (median ~0.42 us), with
// the given fraction of trimmed-header (NACK-path) packets.
func Figure5a(packets int, nackFraction float64, seed int64) *CDF {
	return hoststack.EBPFLowerBound(nackFraction).Measure(packets, seed)
}

// Figure5aMeasured runs the real Go implementation of the proxy's packet
// program and returns its measured per-packet runtime CDF — the empirical
// counterpart to the modeled lower bound.
func Figure5aMeasured(packets int, nackFraction float64) *CDF {
	return hoststack.MeasureProgram(packets, nackFraction)
}

// Figure5b regenerates the stack-inclusive upper-bound CDF
// (median ~326 us).
func Figure5b(packets int, seed int64) *CDF {
	return hoststack.EBPFUpperBound().Measure(packets, seed)
}

// WriteCDFTable renders a latency CDF at standard quantiles.
func WriteCDFTable(w io.Writer, title string, c *CDF) error {
	if _, err := fmt.Fprintf(w, "# %s (n=%d)\n", title, c.N()); err != nil {
		return err
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999} {
		if _, err := fmt.Fprintf(w, "p%-5.1f %v\n", q*100, c.Quantile(q)); err != nil {
			return err
		}
	}
	return nil
}
