package incastproxy

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"incastproxy/internal/model"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/workload"
)

// ModelErrorPoint is one cell of the sim-vs-model cross-validation table:
// the packet-level simulator's measurement beside the analytical model's
// prediction, with signed relative errors ((model-sim)/sim) per metric.
type ModelErrorPoint struct {
	Label  string
	Scheme Scheme
	// Regime is the model branch that produced the prediction.
	Regime string

	SimICT, ModelICT Duration
	SimP50, ModelP50 Duration
	SimP99, ModelP99 Duration
	// ICTErr/P50Err/P99Err are signed relative errors; negative means the
	// model under-predicts the simulator.
	ICTErr, P50Err, P99Err float64
	Seed                   int64
}

// FigureModelError runs the sweep's full grid — the Figure 2 (Left/Right)
// and Figure 3 axes — through both the packet-level simulator and the
// analytical model, and reports the per-cell prediction error. This is the
// model's accuracy audit: the validation tests in internal/model pin hard
// bounds on a fixed sub-grid, while this figure prints the live numbers for
// whatever sweep the caller configured. Adaptive is excluded (the model does
// not cover mid-epoch re-steering); cfg.Fast is ignored — the whole point is
// paying for the DES reference.
func FigureModelError(cfg SweepConfig) ([]ModelErrorPoint, error) {
	points := append(append(fig2LeftPoints(cfg), fig2RightPoints(cfg)...), fig3Points(cfg)...)
	schemes := Schemes()
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	trial := func(i int) (ModelErrorPoint, error) {
		pt, s := points[i/len(schemes)], schemes[i%len(schemes)]
		sp := IncastSpec{
			Scheme:   s,
			Runs:     runs,
			Seed:     rng.DeriveSeed(cfg.Seed, int64(i/len(schemes)), int64(s)),
			Parallel: 1,
		}
		pt.customize(&sp)
		res, err := workload.Run(sp)
		if err != nil {
			return ModelErrorPoint{}, fmt.Errorf("%s %v (sim): %w", pt.label, s, err)
		}
		prm, err := model.FromSpec(sp)
		if err != nil {
			return ModelErrorPoint{}, fmt.Errorf("%s %v (model): %w", pt.label, s, err)
		}
		pred := model.Predict(prm)
		p := ModelErrorPoint{
			Label:    pt.label,
			Scheme:   s,
			Regime:   pred.Regime.String(),
			SimICT:   res.ICT.Avg(),
			ModelICT: pred.ICT,
			ModelP50: pred.P50,
			ModelP99: pred.P99,
			Seed:     sp.Seed,
		}
		// Average the per-run FCT quantiles the same way the ICT column
		// averages completion times.
		for _, rr := range res.Runs {
			p.SimP50 += rr.FlowFCT.P50
			p.SimP99 += rr.FlowFCT.P99
		}
		if n := Duration(len(res.Runs)); n > 0 {
			p.SimP50 /= n
			p.SimP99 /= n
		}
		p.ICTErr = signedRelErr(p.SimICT, p.ModelICT)
		p.P50Err = signedRelErr(p.SimP50, p.ModelP50)
		p.P99Err = signedRelErr(p.SimP99, p.ModelP99)
		return p, nil
	}
	return runner.Map(cfg.Parallel, len(points)*len(schemes), trial)
}

// signedRelErr is (model-sim)/sim, NaN-free: a zero sim measurement (which
// only degenerate cells produce) reports zero error rather than dividing.
func signedRelErr(sim, mod Duration) float64 {
	if sim == 0 {
		return 0
	}
	return (float64(mod) - float64(sim)) / float64(sim)
}

// MaxAbsModelError returns the grid's worst absolute ICT error — the single
// number to watch when recalibrating the model.
func MaxAbsModelError(pts []ModelErrorPoint) float64 {
	var worst float64
	for _, p := range pts {
		if e := math.Abs(p.ICTErr); e > worst {
			worst = e
		}
	}
	return worst
}

// WriteModelErrorTable renders the cross-validation table, one row per
// (point, scheme) cell.
func WriteModelErrorTable(w io.Writer, title string, pts []ModelErrorPoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s\n", title)
	fmt.Fprintln(tw, "point\tscheme\tregime\tict(sim)\tict(model)\tict err\tp50 err\tp99 err")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%v\t%s\t%v\t%v\t%+.1f%%\t%+.1f%%\t%+.1f%%\n",
			p.Label, p.Scheme, p.Regime, p.SimICT, p.ModelICT,
			100*p.ICTErr, 100*p.P50Err, 100*p.P99Err)
	}
	return tw.Flush()
}
