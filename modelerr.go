package incastproxy

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
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

// ModelRanking compares the fastest scheme by the DES and by the model at
// each point of pts, whose cells come grouped by point. It counts the points
// where the DES's fastest beats its runner-up by at least 2%, and at how many
// of them the model's fastest is the same scheme; misses names the others.
func ModelRanking(pts []FigurePoint) (agree, counted int, misses []string) {
	for i, j := 0, 0; i < len(pts); i = j {
		for j = i + 1; j < len(pts) && pts[j].Label == pts[i].Label; j++ {
		}
		sim := slices.Clone(pts[i:j])
		slices.SortStableFunc(sim, func(a, b FigurePoint) int { return cmp.Compare(a.Avg, b.Avg) })
		mod := slices.MinFunc(pts[i:j], func(a, b FigurePoint) int { return cmp.Compare(a.ModelICT, b.ModelICT) })
		if len(sim) < 2 || float64(sim[1].Avg-sim[0].Avg) < 0.02*float64(sim[0].Avg) {
			continue
		}
		counted++
		if mod.Scheme == sim[0].Scheme {
			agree++
		} else {
			misses = append(misses, fmt.Sprintf("%s (DES %v, model %v)", sim[0].Label, sim[0].Scheme, mod.Scheme))
		}
	}
	return agree, counted, misses
}
