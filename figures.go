package incastproxy

import (
	"fmt"
	"io"
	"text/tabwriter"

	"incastproxy/internal/control"
	"incastproxy/internal/hoststack"
	"incastproxy/internal/model"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/stats"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// FigurePoint is one (x, scheme) cell of a paper figure: the avg/min/max
// incast completion time over the sweep's repeated runs.
type FigurePoint struct {
	// Label describes the x-coordinate ("degree=8", "size=100MB",
	// "latency=1ms").
	Label string
	// X is the numeric x-coordinate (degree, bytes, or latency in us).
	X      float64
	Scheme Scheme

	Avg, Min, Max Duration
	// BaselineAvg carries the matching baseline average so reductions
	// can be computed per point.
	BaselineAvg Duration
	// ConfigHash fingerprints the exact spec that produced this point
	// (from the run manifest), so figure rows are traceable to a
	// reproducible configuration.
	ConfigHash uint64
	// Seed is the cell's base seed, derived from the sweep seed and the
	// cell's (point, scheme) coordinates so no two cells share a random
	// stream; the cell's repeated runs derive further from it.
	Seed int64
}

// Reduction returns this point's relative ICT reduction versus baseline.
func (p FigurePoint) Reduction() float64 { return stats.Reduction(p.BaselineAvg, p.Avg) }

// SweepConfig parameterizes the figure sweeps. PaperSweep reproduces §4's
// exact settings; QuickSweep is a reduced-size variant for benchmarks and
// CI (same shapes, minutes less wall time).
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

	// Policy supplies the adaptive cells' controller thresholds for
	// FigureAdaptive (zero value: control.DefaultConfig, retuned to the
	// cell's topology by the workload). Static cells ignore it.
	Policy control.Config

	// Parallel fans the sweep's (point, scheme) cells across worker
	// goroutines: 0 uses one worker per CPU (sweeps have no user hooks,
	// so this is always safe), 1 forces serial execution, N > 1 uses N
	// workers. Cell seeds are position-derived and results merge in cell
	// order, so figure tables are byte-identical at any setting.
	Parallel int

	// Fast evaluates every cell with the analytical model (internal/model)
	// instead of the packet-level simulator: microseconds per cell instead
	// of seconds, at the model's validated error bounds (see `figures -fig
	// modelerr` for the sim-vs-model table). Fast cells have no run-to-run
	// spread (Min == Avg == Max), no config hash, and cannot evaluate
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

// QuickSweep returns a reduced-size sweep preserving the figures' shapes:
// 40 MB totals keep the first-RTT burst above the 17 MB ToR buffer, and
// the 20 MB point keeps Figure 2 (Right)'s crossover.
func QuickSweep() SweepConfig {
	return SweepConfig{
		Degrees:         []int{2, 4, 8, 16},
		Fig2LeftTotal:   40 * MB,
		Sizes:           []ByteSize{10 * MB, 20 * MB, 40 * MB, 80 * MB},
		Fig2RightDegree: 4,
		Latencies: []Duration{
			10 * units.Microsecond, 100 * units.Microsecond,
			units.Millisecond, 10 * units.Millisecond,
		},
		Fig3Degree: 4,
		Fig3Total:  40 * MB,
		Runs:       2,
		Seed:       1,
	}
}

// fig2LeftPoints builds the degree axis's sweep points; shared by the
// figure sweep and the sim-vs-model error table (modelerr.go).
func fig2LeftPoints(cfg SweepConfig) []sweepPoint {
	points := make([]sweepPoint, 0, len(cfg.Degrees))
	for _, deg := range cfg.Degrees {
		deg := deg
		points = append(points, sweepPoint{
			label: fmt.Sprintf("degree=%d", deg),
			x:     float64(deg),
			customize: func(sp *IncastSpec) {
				sp.Degree = deg
				sp.TotalBytes = cfg.Fig2LeftTotal
			},
		})
	}
	return points
}

// Figure2Left regenerates the degree sweep: fixed total size, varying the
// number of senders, all three schemes.
func Figure2Left(cfg SweepConfig) ([]FigurePoint, error) {
	return runSweep(cfg, fig2LeftPoints(cfg))
}

// fig2RightPoints builds the size axis's sweep points.
func fig2RightPoints(cfg SweepConfig) []sweepPoint {
	points := make([]sweepPoint, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		size := size
		points = append(points, sweepPoint{
			label: fmt.Sprintf("size=%v", size),
			x:     float64(size),
			customize: func(sp *IncastSpec) {
				sp.Degree = cfg.Fig2RightDegree
				sp.TotalBytes = size
			},
		})
	}
	return points
}

// Figure2Right regenerates the size sweep: fixed degree, varying total
// incast size.
func Figure2Right(cfg SweepConfig) ([]FigurePoint, error) {
	return runSweep(cfg, fig2RightPoints(cfg))
}

// fig3Points builds the latency axis's sweep points.
func fig3Points(cfg SweepConfig) []sweepPoint {
	points := make([]sweepPoint, 0, len(cfg.Latencies))
	for _, lat := range cfg.Latencies {
		lat := lat
		points = append(points, sweepPoint{
			label: fmt.Sprintf("latency=%v", lat),
			x:     lat.Microseconds(),
			customize: func(sp *IncastSpec) {
				sp.Degree = cfg.Fig3Degree
				sp.TotalBytes = cfg.Fig3Total
				t := DefaultTopo()
				t.InterDelay = lat
				sp.Topo = t
			},
		})
	}
	return points
}

// Figure3 regenerates the latency-gap sweep: fixed degree and size,
// varying the long-haul link latency (log-log in the paper).
func Figure3(cfg SweepConfig) ([]FigurePoint, error) {
	return runSweep(cfg, fig3Points(cfg))
}

// FigureAdaptive compares the adaptive control plane against both static
// choices: the Figure 2 (Right) size axis (where the right answer flips
// from direct to proxy partway along), then two stress rows at the sweep's
// Fig3Total size — bursty cross traffic parked on the proxy ToR (staying
// direct is right) and a proxy crash mid-epoch (failing over is right).
// Static schemes run each row unchanged, so every cell answers "what would
// this policy have cost here".
func FigureAdaptive(cfg SweepConfig) ([]FigurePoint, error) {
	points := make([]sweepPoint, 0, len(cfg.Sizes)+2)
	for _, size := range cfg.Sizes {
		size := size
		points = append(points, sweepPoint{
			label: fmt.Sprintf("size=%v", size),
			x:     float64(size),
			customize: func(sp *IncastSpec) {
				sp.Degree = cfg.Fig2RightDegree
				sp.TotalBytes = size
				sp.Control = cfg.Policy
			},
		})
	}
	points = append(points, sweepPoint{
		label: fmt.Sprintf("size=%v+cross", cfg.Fig3Total),
		x:     float64(cfg.Fig3Total),
		customize: func(sp *IncastSpec) {
			sp.Degree = cfg.Fig2RightDegree
			sp.TotalBytes = cfg.Fig3Total
			sp.Control = cfg.Policy
			sp.CrossTraffic = workload.CrossTrafficSpec{Flows: 2, Bytes: 40 * MB}
			sp.IncastDelay = 2 * units.Millisecond
		},
	})
	points = append(points, sweepPoint{
		label: fmt.Sprintf("size=%v+crash", cfg.Fig3Total),
		x:     float64(cfg.Fig3Total),
		customize: func(sp *IncastSpec) {
			sp.Degree = cfg.Fig2RightDegree
			sp.TotalBytes = cfg.Fig3Total
			sp.Control = cfg.Policy
			sp.ProxyCrashAt = units.Millisecond
			sp.ProxyRestartAfter = 50 * units.Millisecond
			sp.MaxSimTime = 2 * units.Second
		},
	})
	return runSweepSchemes(cfg, points,
		[]Scheme{Baseline, ProxyStreamlined, SchemeAdaptive})
}

// DetectLatencyPoint is one row of the detection-to-resteer latency
// figure: for an adaptive run at one incast size, the control plane's
// latency from declaring onset to executing the proxy steer. The
// quantiles come from the control_detect_to_steer_us windowed-quantile
// series in the run manifests the sweep already produces (averaged over
// the point's repeated runs); Steers counts the samples behind them.
type DetectLatencyPoint struct {
	Label          string
	X              float64
	Steers         uint64
	P50, P99, P999 Duration
	ConfigHash     uint64
	Seed           int64
}

// FigureDetectLatency sweeps the adaptive scheme over the size axis and
// reports how fast detection turned into a re-steer at each point. Cells
// where the controller never steered (the epoch fit the direct path)
// report zero quantiles and zero steers — that row is the figure's
// negative control, not a measurement gap.
func FigureDetectLatency(cfg SweepConfig) ([]DetectLatencyPoint, error) {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	trial := func(i int) (DetectLatencyPoint, error) {
		size := cfg.Sizes[i]
		sp := IncastSpec{
			Scheme:     SchemeAdaptive,
			Degree:     cfg.Fig2RightDegree,
			TotalBytes: size,
			Control:    cfg.Policy,
			Runs:       runs,
			Seed:       rng.DeriveSeed(cfg.Seed, int64(i), int64(SchemeAdaptive)),
			Parallel:   1,
		}
		res, err := workload.Run(sp)
		if err != nil {
			return DetectLatencyPoint{}, fmt.Errorf("size=%v adaptive: %w", size, err)
		}
		p := DetectLatencyPoint{
			Label: fmt.Sprintf("size=%v", size),
			X:     float64(size),
			Seed:  sp.Seed,
		}
		var sampled int
		for _, rr := range res.Runs {
			if rr.Manifest == nil {
				continue
			}
			m := rr.Manifest.Metrics
			p.ConfigHash = rr.Manifest.ConfigHash
			if c, ok := m.Get("control_detect_to_steer_us_count"); ok {
				p.Steers += uint64(c)
			}
			p50, ok := m.Get(obs.LabeledName("control_detect_to_steer_us", "quantile", "0.5"))
			if !ok {
				continue
			}
			p99, _ := m.Get(obs.LabeledName("control_detect_to_steer_us", "quantile", "0.99"))
			p999, _ := m.Get(obs.LabeledName("control_detect_to_steer_us", "quantile", "0.999"))
			p.P50 += Duration(p50) * units.Microsecond
			p.P99 += Duration(p99) * units.Microsecond
			p.P999 += Duration(p999) * units.Microsecond
			sampled++
		}
		if sampled > 1 {
			p.P50 /= Duration(sampled)
			p.P99 /= Duration(sampled)
			p.P999 /= Duration(sampled)
		}
		return p, nil
	}
	return runner.Map(cfg.Parallel, len(cfg.Sizes), trial)
}

// WriteDetectLatencyTable renders the detection-to-resteer figure as an
// aligned table, one row per size point.
func WriteDetectLatencyTable(w io.Writer, title string, pts []DetectLatencyPoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s\n", title)
	fmt.Fprintln(tw, "point\tsteers\tp50\tp99\tp99.9\tconfig")
	for _, p := range pts {
		cfg := "-"
		if p.ConfigHash != 0 {
			cfg = fmt.Sprintf("%08x", p.ConfigHash>>32)
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%s\n", p.Label, p.Steers, p.P50, p.P99, p.P999, cfg)
	}
	return tw.Flush()
}

// sweepPoint is one x-coordinate of a figure sweep; customize stamps the
// coordinate onto the spec.
type sweepPoint struct {
	label     string
	x         float64
	customize func(*IncastSpec)
}

// runSweep executes every (point, scheme) cell of a figure, fanning the
// cells across the sweep's worker pool and merging results in row order
// (points in input order, schemes within each row) so the output is
// byte-identical however many workers ran it.
//
// Each cell's seed is derived from the sweep seed and the cell's (point,
// scheme) position. Before this derivation every cell ran with the raw
// sweep seed, so samples were fully correlated across sweep points: a
// lucky spray pattern at degree 2 reappeared at every other degree,
// and the reported min/max understated the true run-to-run spread.
func runSweep(cfg SweepConfig, points []sweepPoint) ([]FigurePoint, error) {
	return runSweepSchemes(cfg, points, Schemes())
}

func runSweepSchemes(cfg SweepConfig, points []sweepPoint, schemes []Scheme) ([]FigurePoint, error) {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	trial := func(i int) (FigurePoint, error) {
		pt, s := points[i/len(schemes)], schemes[i%len(schemes)]
		sp := IncastSpec{
			Scheme: s,
			Runs:   runs,
			Seed:   rng.DeriveSeed(cfg.Seed, int64(i/len(schemes)), int64(s)),
			// The cells themselves are the unit of parallelism; their
			// inner runs stay serial so the pool is not oversubscribed.
			Parallel: 1,
		}
		pt.customize(&sp)
		if cfg.Fast {
			prm, err := model.FromSpec(sp)
			if err != nil {
				return FigurePoint{}, fmt.Errorf("%s %v (fast): %w", pt.label, s, err)
			}
			pred := model.Predict(prm)
			// One closed-form number per cell: no run-to-run spread, no
			// manifest to hash.
			return FigurePoint{
				Label:  pt.label,
				X:      pt.x,
				Scheme: s,
				Avg:    pred.ICT,
				Min:    pred.ICT,
				Max:    pred.ICT,
				Seed:   sp.Seed,
			}, nil
		}
		res, err := workload.Run(sp)
		if err != nil {
			return FigurePoint{}, fmt.Errorf("%s %v: %w", pt.label, s, err)
		}
		p := FigurePoint{
			Label:  pt.label,
			X:      pt.x,
			Scheme: s,
			Avg:    res.ICT.Avg(),
			Min:    res.ICT.Min(),
			Max:    res.ICT.Max(),
			Seed:   sp.Seed,
		}
		if len(res.Runs) > 0 && res.Runs[0].Manifest != nil {
			p.ConfigHash = res.Runs[0].Manifest.ConfigHash
		}
		return p, nil
	}
	pts, err := runner.Map(cfg.Parallel, len(points)*len(schemes), trial)
	if err != nil {
		return nil, err
	}
	// Backfill each row's baseline average so reductions compute per point.
	for row := 0; row < len(points); row++ {
		var baseAvg Duration
		for col, s := range schemes {
			if s == Baseline {
				baseAvg = pts[row*len(schemes)+col].Avg
			}
		}
		for col := range schemes {
			pts[row*len(schemes)+col].BaselineAvg = baseAvg
		}
	}
	return pts, nil
}

// MeanReduction averages a proxy scheme's per-point reductions across a
// figure (how §4.2 quotes "on average" numbers).
func MeanReduction(pts []FigurePoint, s Scheme) float64 {
	var sum float64
	var n int
	for _, p := range pts {
		if p.Scheme == s && p.BaselineAvg > 0 {
			sum += p.Reduction()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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
	fmt.Fprintf(w, "# %s (n=%d)\n", title, c.N())
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999} {
		if _, err := fmt.Fprintf(w, "p%-5.1f %v\n", q*100, c.Quantile(q)); err != nil {
			return err
		}
	}
	return nil
}
