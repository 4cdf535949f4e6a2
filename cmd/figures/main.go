// Command figures regenerates the paper's evaluation sweeps (Figures 1, 2
// and 3) at §4's scale (incastproxy.PaperSweep), §4.2's claims, the adaptive
// control plane's table and the sim-vs-model error table as printed series
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
// records). The three sweeps are evaluated once; the claims and model-error
// tables are views of their points. The host-stack CDFs of Figures 4, 5a and
// 5b are cmd/proxybench's.
//
// Usage:
//
//	figures                 # every table (~55 s on 2 cores); testdata/figures.txt is its output
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
	switch *fig {
	case "all", "2l", "2r", "3", "claims":
	case "1", "adaptive", "modelerr":
		if *fast {
			prog.Fatal(fmt.Errorf("-fast only covers the sweep figures (-fig 2l|2r|3|claims); figure %q needs the packet-level simulator", *fig))
		}
	default:
		prog.Fatal(fmt.Errorf("unknown figure %q (Figures 4, 5a and 5b are cmd/proxybench's)", *fig))
	}

	runFig := func(name string) bool {
		if *fig == "all" {
			// A fast "all" is the model's domain: the three sweep figures and
			// the claims table read from them.
			return !*fast || name == "2l" || name == "2r" || name == "3" || name == "claims"
		}
		return *fig == name
	}
	if runFig("1") {
		prog.Check(figure1())
	}
	// The claims and model-error tables read the three sweeps' points: asked
	// for alone, they evaluate the sweeps without printing their tables, and
	// "all" reuses the ones it printed.
	var sweeps [3][]incastproxy.FigurePoint
	for i, f := range []struct {
		name, short, title string
		run                func(incastproxy.SweepConfig) ([]incastproxy.FigurePoint, error)
	}{
		{"2l", "Figure 2 (Left)", "Figure 2 (Left): ICT vs incast degree", incastproxy.Figure2Left},
		{"2r", "Figure 2 (Right)", "Figure 2 (Right): ICT vs incast size", incastproxy.Figure2Right},
		{"3", "Figure 3", "Figure 3: ICT vs long-haul link latency (log-log in paper)", incastproxy.Figure3},
	} {
		if !runFig(f.name) && !runFig("claims") && !runFig("modelerr") {
			continue
		}
		pts, err := f.run(sweep)
		prog.Check(err)
		sweeps[i] = pts
		if !runFig(f.name) {
			continue
		}
		prog.Check(incastproxy.WriteFigureTable(os.Stdout, f.title, pts))
		prog.Printf("%s mean reductions: naive=%.2f%% streamlined=%.2f%%\n\n", f.short,
			incastproxy.MeanReduction(pts, incastproxy.ProxyNaive)*100,
			incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100)
	}
	if runFig("claims") {
		prog.Check(incastproxy.WriteClaimsTable(os.Stdout, sweeps[0], sweeps[1], sweeps[2]))
		prog.Printf("\n")
	}
	if runFig("adaptive") {
		// Its size rows' static cells are Fig 2R's, when "all" evaluated it.
		pts, err := incastproxy.FigureAdaptive(sweep, sweeps[1])
		prog.Check(err)
		prog.Check(incastproxy.WriteFigureTable(os.Stdout,
			"Adaptive control plane: ICT vs incast size, plus cross-traffic and proxy-crash stress rows", pts))
		prog.Printf("Adaptive mean reductions: static=%.2f%% adaptive=%.2f%%\n\n",
			incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100,
			incastproxy.MeanReduction(pts, incastproxy.SchemeAdaptive)*100)
	}
	if runFig("modelerr") {
		pts := slices.Concat(sweeps[:]...)
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
