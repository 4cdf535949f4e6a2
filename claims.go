package incastproxy

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// claim is one number §4.2 of the paper quotes, beside the cell or figure
// mean of ours that answers it. Values are ICT reductions in percent with
// the figure tables' sign: positive means the proxy is faster.
type claim struct {
	words  string
	fig    Table
	label  string // the cell's point; "" reads the figure's mean
	scheme Scheme
	paper  float64 // a sign claim has none
	tol    float64 // points ours may sit from paper
	sign   bool    // passes when ours is above zero instead
	parity bool    // ours is the larger |reduction| of both proxies at label
}

// claims lists each quoted number once. EXPERIMENTS.md and DESIGN.md §4
// point at its paper-scale render, the claims table in testdata/figures.txt,
// instead of copying the numbers.
var claims = []claim{
	{words: "Fig 2L mean reduction, naive", fig: Fig2Left, scheme: ProxyNaive, paper: 75.67, tol: 10},
	{words: "Fig 2L mean reduction, streamlined", fig: Fig2Left, scheme: ProxyStreamlined, paper: 70.60, tol: 10},
	{words: "Fig 2R mean reduction, naive (paper 5 sizes, ours 4: no 400 MB)", fig: Fig2Right, scheme: ProxyNaive, paper: 57.08, tol: 10},
	{words: "Fig 2R mean reduction, streamlined (paper 5 sizes, ours 4: no 400 MB)", fig: Fig2Right, scheme: ProxyStreamlined, paper: 53.60, tol: 10},
	{words: "Fig 3 naive at 100 µs", fig: Fig3, label: "latency=100us", scheme: ProxyNaive, paper: 11.70, tol: 10},
	{words: "Fig 3 naive at 1 ms", fig: Fig3, label: "latency=1ms", scheme: ProxyNaive, paper: 75.00, tol: 10},
	{words: "Fig 3 streamlined wins at 100 µs", fig: Fig3, label: "latency=100us", scheme: ProxyStreamlined, sign: true},
	{words: "Fig 2R parity at 20 MB, worst |reduction| of both proxies", fig: Fig2Right, label: "size=20MB", parity: true, tol: 5},
}

// ours computes the claim's value from its figure's points, in percent.
func (c claim) ours(pts []FigurePoint) (float64, error) {
	if !c.parity {
		r, err := meanReduction(pts, c.label, c.scheme)
		return r * 100, err
	}
	a, err := meanReduction(pts, c.label, ProxyNaive)
	if err != nil {
		return 0, err
	}
	b, err := meanReduction(pts, c.label, ProxyStreamlined)
	return math.Max(math.Abs(a), math.Abs(b)) * 100, err
}

// pass judges ours at the table's printed precision, hundredths of a
// point, so a row on a tolerance edge reads the same as its verdict.
func (c claim) pass(ours float64) bool {
	o := math.Round(ours * 100)
	if c.sign {
		return o > 0
	}
	return math.Abs(o-math.Round(c.paper*100)) <= math.Round(c.tol*100)
}

// WriteClaimsTable renders §4.2's quoted numbers beside ours, computed from
// Sweep's Fig2Left, Fig2Right and Fig3 points: paper, ours, tolerance and
// PASS or FAIL per claim. It returns an error naming the claim when a cell a
// claim reads is missing.
func WriteClaimsTable(w io.Writer, figs map[Table][]FigurePoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# §4.2 claims: the paper's ICT reductions beside ours (%, positive = proxy faster)")
	fmt.Fprintln(tw, "claim\tpaper\tours\ttolerance\tverdict")
	for _, c := range claims {
		ours, err := c.ours(figs[c.fig])
		if err != nil {
			return fmt.Errorf("claim %q: %w", c.words, err)
		}
		paper, tol, verdict := fmt.Sprintf("%.2f", c.paper), fmt.Sprintf("±%g", c.tol), "FAIL"
		if c.sign {
			paper, tol = ">0", "sign"
		}
		if c.pass(ours) {
			verdict = "PASS"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\n", c.words, paper, ours, tol, verdict)
	}
	return tw.Flush()
}
