// Command figures regenerates the paper's evaluation sweeps (Figures 1, 2
// and 3) at §4's scale (incastproxy.PaperSweep), §4.2's claims, the adaptive
// control plane's table and the sim-vs-model error table as printed series
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
// records). Every table asked for reads one evaluation, which simulates each
// configuration once however many tables share it; the claims and
// model-error tables are views of the three sweeps' points. The host-stack
// CDFs of Figures 4, 5a and 5b are cmd/proxybench's.
//
// Usage:
//
//	figures                 # every table (~35 s on 2 cores); testdata/figures.txt is its output
//	figures -fig 2l         # only Figure 2 (Left)
//	figures -fig claims     # only §4.2's quoted numbers beside ours, PASS/FAIL each
//	figures -fig modelerr   # only the sim-vs-model prediction-error table
//	figures -parallel 4     # fan sweep cells over 4 workers; same bytes out
//	figures -fast           # sweep tables from the analytical model (instant)
//
// A failed write to standard output exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	incastproxy "incastproxy"
	"incastproxy/internal/cliutil"
)

const prog cliutil.Prog = "figures"

// reads lists the sweep tables each printed table reads.
var reads = map[string][]incastproxy.Table{
	"1":        nil,
	"2l":       {incastproxy.Fig2Left},
	"2r":       {incastproxy.Fig2Right},
	"3":        {incastproxy.Fig3},
	"claims":   {incastproxy.Fig2Left, incastproxy.Fig2Right, incastproxy.Fig3},
	"adaptive": {incastproxy.Adaptive},
	"modelerr": {incastproxy.Fig2Left, incastproxy.Fig2Right, incastproxy.Fig3},
}

// modelDomain is what -fast evaluates, and what a fast "all" prints: the
// three sweep figures and the claims table read from them.
var modelDomain = []string{"2l", "2r", "3", "claims"}

// figures titles the three sweep figures' tables.
var figures = map[string]struct{ short, title string }{
	"2l": {"Figure 2 (Left)", "Figure 2 (Left): ICT vs incast degree"},
	"2r": {"Figure 2 (Right)", "Figure 2 (Right): ICT vs incast size"},
	"3":  {"Figure 3", "Figure 3: ICT vs long-haul link latency (log-log in paper)"},
}

func main() {
	var (
		fig      = flag.String("fig", "all", "1 | 2l | 2r | 3 | claims | adaptive | modelerr | all (Figures 4, 5a and 5b: cmd/proxybench)")
		fast     = flag.Bool("fast", false, "evaluate sweep cells with the analytical model instead of the simulator (figs 2l/2r/3/claims only; see -fig modelerr for its error bounds)")
		parallel = flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = serial); output is byte-identical at any setting")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the whole invocation to this file (go tool pprof -sample_index=alloc_space)")
	)
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		prog.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			prog.Fatal(err)
		}
	}()

	sweep := incastproxy.PaperSweep()
	sweep.Parallel = *parallel
	sweep.Fast = *fast
	names := []string{"1", "2l", "2r", "3", "claims", "adaptive", "modelerr"}
	if *fast {
		names = modelDomain
	}
	if *fig != "all" {
		if _, ok := reads[*fig]; !ok {
			prog.Fatal(fmt.Errorf("unknown figure %q (Figures 4, 5a and 5b are cmd/proxybench's)", *fig))
		}
		if *fast && !slices.Contains(modelDomain, *fig) {
			prog.Fatal(fmt.Errorf("-fast only covers the sweep figures (-fig 2l|2r|3|claims); figure %q needs the packet-level simulator", *fig))
		}
		names = []string{*fig}
	}
	var tables []incastproxy.Table
	for _, name := range names {
		tables = append(tables, reads[name]...)
	}
	figs, err := incastproxy.Sweep(sweep, tables...)
	prog.Check(err)

	for _, name := range names {
		switch name {
		case "1":
			prog.Check(figure1())
		case "2l", "2r", "3":
			f, pts := figures[name], figs[reads[name][0]]
			prog.Check(incastproxy.WriteFigureTable(os.Stdout, f.title, pts))
			prog.Printf("%s mean reductions: naive=%.2f%% streamlined=%.2f%%\n\n", f.short,
				incastproxy.MeanReduction(pts, incastproxy.ProxyNaive)*100,
				incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100)
		case "claims":
			prog.Check(incastproxy.WriteClaimsTable(os.Stdout, figs))
			prog.Printf("\n")
		case "adaptive":
			pts := figs[incastproxy.Adaptive]
			prog.Check(incastproxy.WriteFigureTable(os.Stdout,
				"Adaptive control plane: ICT vs incast size, plus cross-traffic and proxy-crash stress rows", pts))
			prog.Printf("Adaptive mean reductions: static=%.2f%% adaptive=%.2f%%\n\n",
				incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100,
				incastproxy.MeanReduction(pts, incastproxy.SchemeAdaptive)*100)
		case "modelerr":
			pts := slices.Concat(figs[incastproxy.Fig2Left], figs[incastproxy.Fig2Right], figs[incastproxy.Fig3])
			prog.Check(incastproxy.WriteModelErrorTable(os.Stdout,
				"Sim vs analytical model: per-cell prediction error over Figures 2 (Left), 2 (Right) and 3", pts))
			prog.Printf("Model error: worst |ICT| deviation %.1f%% across %d cells\n",
				incastproxy.MaxAbsModelError(pts)*100, len(pts))
			agree, counted, misses := incastproxy.ModelRanking(pts)
			prog.Printf("Model ranking: fastest scheme agrees with the DES at %d of %d points where its margin is >= 2%%", agree, counted)
			for _, m := range misses {
				prog.Printf("; disagrees at %s", m)
			}
			prog.Printf("\n\n")
		}
	}
}

// figure1 prints the bottleneck-shift telemetry illustrated by Figure 1:
// the hot down-ToR queue moves from the receiver to the proxy.
func figure1() error {
	prog.Printf("# Figure 1: congestion point (max down-ToR queue occupancy, 8x senders, 40MB)\n")
	prog.Printf("scheme              receiverToR          proxyToR\n")
	for _, s := range []incastproxy.Scheme{incastproxy.Baseline, incastproxy.ProxyNaive, incastproxy.ProxyStreamlined} {
		res, err := incastproxy.RunIncast(incastproxy.IncastSpec{
			Scheme: s, Degree: 8, TotalBytes: 40 * incastproxy.MB, Runs: 1, Seed: 7,
		})
		if err != nil {
			return err
		}
		rr := res.Runs[0]
		prog.Printf("%-18s  max=%-10v d=%-6d max=%-10v t=%d\n",
			s, rr.ReceiverToRMaxQueue, rr.ReceiverToRDrops, rr.ProxyToRMaxQueue, rr.ProxyToRTrims)
	}
	return nil
}
