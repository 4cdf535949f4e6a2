package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// runSet is the saved output of several runs: per workload and metric, one
// value per run, in file order.
type runSet map[string]map[string][]float64

// parseRuns reads concatenated run outputs: a "# incastbench workload=..."
// header opens a run, and every "name value unit" line after it is one of
// that run's metrics. Other lines (the result object) are skipped.
func parseRuns(r io.Reader) (runSet, error) {
	set := make(runSet)
	var cur map[string][]float64
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# incastbench "); ok {
			name := ""
			for _, kv := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(kv, "workload="); ok {
					name = v
				}
			}
			if name == "" {
				return nil, fmt.Errorf("run header without a workload: %q", line)
			}
			if set[name] == nil {
				set[name] = make(map[string][]float64)
			}
			cur = set[name]
			continue
		}
		f := strings.Fields(line)
		if cur == nil || len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			cur[f[0]] = append(cur[f[0]], v)
		}
	}
	return set, sc.Err()
}

func parseRunFile(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := parseRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// spread is the distance between the quartiles as a share of the median,
// with the quartiles Python's statistics.quantiles(values, n=4) gives: its
// default, exclusive method puts quartile i at position i*(n+1)/4 among the
// 1-based order statistics. That is how the benchmark's users judge a spread.
func spread(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	quartile := func(i float64) float64 {
		pos := i*(n+1)/4 - 1 // 0-based, fractional
		return quantile(xs, math.Min(math.Max(pos, 0), n-1)/(n-1))
	}
	return (quartile(3) - quartile(1)) / median(xs)
}

// agree compares set b against set a, workload by workload and gated metric
// by gated metric, and prints one verdict per pair. A pair agrees when b's
// median is not worse than a's by more than the metric's bound; its two
// spreads are printed beside it and flagged when wider than the bound. It
// reports whether every pair agreed.
func agree(w io.Writer, a, b runSet) bool {
	all := true
	fmt.Fprintf(w, "%-17s %-16s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloadDefs {
		ma, mb := a[wl.Name], b[wl.Name]
		for _, d := range endToEnd {
			va, vb := ma[d.Name], mb[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-17s %-16s missing from a set\n", wl.Name, d.Name)
				all = false
				continue
			}
			worse := median(vb)/median(va) - 1
			if d.Better == higher {
				worse = -worse
			}
			verdict := "agree"
			widest := math.Max(spread(va), spread(vb))
			switch {
			case worse > d.Bound:
				verdict = "DISAGREE"
				all = false
			case d.Name == "setup_s":
				// Its spread is not judged: set-up is timed three
				// times a run, not dozens.
			case widest > d.Bound:
				verdict = "agree, but spread exceeds bound"
				all = false
			case widest > d.Bound/3:
				verdict = "agree (a spread is above a third of the bound)"
			}
			fmt.Fprintf(w, "%-17s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse,
				100*spread(va), 100*spread(vb), 100*d.Bound, verdict)
		}
		for _, name := range []string{"host.calib_spread_pct", "host.op_wall_ms_p50", "host.calib_ms_p50"} {
			fmt.Fprintf(w, "%-17s %-16s %12.6g %12.6g   (%d and %d runs; not gated)\n",
				wl.Name, strings.TrimPrefix(name, "host."), median(ma[name]), median(mb[name]), len(ma[name]), len(mb[name]))
		}
	}
	return all
}

func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := parseRunFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := parseRunFile(pathB)
	if err != nil {
		return false, err
	}
	return agree(w, a, b), nil
}
