package incastproxy

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// signedRelErr is (model-sim)/sim, NaN-free: a zero sim measurement (which
// only degenerate cells produce) reports zero error rather than dividing.
// Negative means the model under-predicts the simulator.
func signedRelErr(sim, mod Duration) float64 {
	if sim == 0 {
		return 0
	}
	return (float64(mod) - float64(sim)) / float64(sim)
}

// MaxAbsModelError returns the grid's worst absolute ICT error — the single
// number to watch when recalibrating the model.
func MaxAbsModelError(pts []FigurePoint) float64 {
	var worst float64
	for _, p := range pts {
		if e := math.Abs(signedRelErr(p.Avg, p.ModelICT)); e > worst {
			worst = e
		}
	}
	return worst
}

// WriteModelErrorTable renders the model's accuracy audit: one row per
// (point, scheme) cell of the figures' own points, the packet-level
// simulator's measurement beside the analytical model's prediction, with
// signed relative errors ((model-sim)/sim) per metric. The validation tests
// in internal/model pin hard bounds on a fixed sub-grid; this table prints
// the live numbers for whatever sweep the caller evaluated. Adaptive cells
// carry no prediction, so callers pass the static figures only.
func WriteModelErrorTable(w io.Writer, title string, pts []FigurePoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s\n", title)
	fmt.Fprintln(tw, "point\tscheme\tregime\tict(sim)\tict(model)\tict err\tp50 err\tp99 err")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%v\t%s\t%v\t%v\t%+.1f%%\t%+.1f%%\t%+.1f%%\n",
			p.Label, p.Scheme, p.Regime, p.Avg, p.ModelICT,
			100*signedRelErr(p.Avg, p.ModelICT), 100*signedRelErr(p.P50, p.ModelP50),
			100*signedRelErr(p.P99, p.ModelP99))
	}
	return tw.Flush()
}
