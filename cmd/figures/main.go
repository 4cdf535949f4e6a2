// Command figures regenerates the paper's evaluation sweeps (Figures 1, 2
// and 3), the adaptive control plane's table and the sim-vs-model error table
// as printed series (see DESIGN.md's experiment index and EXPERIMENTS.md for
// paper-vs-measured records). The host-stack CDFs of Figures 4, 5a and 5b are
// cmd/proxybench's.
//
// Usage:
//
//	figures                 # quick (reduced-size) sweep of every figure
//	figures -fig 2l         # only Figure 2 (Left)
//	figures -full           # paper-scale parameters (slow: many minutes)
//	figures -summary        # only the §4.2 mean-reduction summary lines
//	figures -parallel 4     # fan sweep cells over 4 workers; same bytes out
//	figures -fast           # sweep tables from the analytical model (microseconds)
//	figures -fig modelerr   # sim-vs-model prediction-error table (runs the DES)
//
// A failed write to standard output exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	incastproxy "incastproxy"
	"incastproxy/internal/cliutil"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "1 | 2l | 2r | 3 | adaptive | modelerr | all (Figures 4, 5a and 5b: cmd/proxybench)")
		full     = flag.Bool("full", false, "paper-scale parameters (5 runs, 100MB, 6 latencies)")
		fast     = flag.Bool("fast", false, "evaluate sweep cells with the analytical model instead of the simulator (figs 2l/2r/3 only; see -fig modelerr for its error bounds)")
		summary  = flag.Bool("summary", false, "print only §4.2-style mean reductions")
		parallel = flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = serial); output is byte-identical at any setting")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the whole invocation to this file (go tool pprof -sample_index=alloc_space)")
	)
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	sweep := incastproxy.QuickSweep()
	if *full {
		sweep = incastproxy.PaperSweep()
	}
	sweep.Parallel = *parallel

	sweep.Fast = *fast
	switch *fig {
	case "all", "2l", "2r", "3":
	case "1", "adaptive", "modelerr":
		if *fast {
			fatal(fmt.Errorf("-fast only covers the sweep figures (-fig 2l|2r|3); figure %q needs the packet-level simulator", *fig))
		}
	default:
		fatal(fmt.Errorf("unknown figure %q (Figures 4, 5a and 5b are cmd/proxybench's)", *fig))
	}

	runFig := func(name string) bool {
		if *fig == "all" {
			if *fast {
				// A fast "all" is the model's domain: the three sweep figures.
				return name == "2l" || name == "2r" || name == "3"
			}
			// modelerr re-runs the whole DES grid; only print it when
			// asked for by name.
			return name != "modelerr"
		}
		return *fig == name
	}
	out := os.Stdout

	if runFig("1") {
		check(figure1(out))
	}
	for _, f := range []struct {
		name, short, title string
		run                func(incastproxy.SweepConfig) ([]incastproxy.FigurePoint, error)
	}{
		{"2l", "Figure 2 (Left)", "Figure 2 (Left): ICT vs incast degree", incastproxy.Figure2Left},
		{"2r", "Figure 2 (Right)", "Figure 2 (Right): ICT vs incast size", incastproxy.Figure2Right},
		{"3", "Figure 3", "Figure 3: ICT vs long-haul link latency (log-log in paper)", incastproxy.Figure3},
	} {
		if !runFig(f.name) {
			continue
		}
		pts, err := f.run(sweep)
		check(err)
		if !*summary {
			check(incastproxy.WriteFigureTable(out, f.title, pts))
		}
		_, err = fmt.Fprintf(out, "%s mean reductions: naive=%.2f%% streamlined=%.2f%%\n\n", f.short,
			incastproxy.MeanReduction(pts, incastproxy.ProxyNaive)*100,
			incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100)
		check(err)
	}
	if runFig("adaptive") {
		pts, err := incastproxy.FigureAdaptive(sweep)
		check(err)
		if !*summary {
			check(incastproxy.WriteFigureTable(out,
				"Adaptive control plane: ICT vs incast size, plus cross-traffic and proxy-crash stress rows", pts))
		}
		_, err = fmt.Fprintf(out, "Adaptive mean reductions: static=%.2f%% adaptive=%.2f%%\n\n",
			incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100,
			incastproxy.MeanReduction(pts, incastproxy.SchemeAdaptive)*100)
		check(err)
	}
	if runFig("modelerr") {
		pts, err := incastproxy.FigureModelError(sweep)
		check(err)
		if !*summary {
			check(incastproxy.WriteModelErrorTable(out,
				"Sim vs analytical model: per-cell prediction error over the sweep grid", pts))
		}
		_, err = fmt.Fprintf(out, "Model error: worst |ICT| deviation %.1f%% across %d cells\n\n",
			incastproxy.MaxAbsModelError(pts)*100, len(pts))
		check(err)
	}
}

// figure1 prints the bottleneck-shift telemetry illustrated by Figure 1:
// the hot down-ToR queue moves from the receiver to the proxy.
func figure1(out io.Writer) error {
	if _, err := fmt.Fprintln(out, "# Figure 1: congestion point (max down-ToR queue occupancy, 8x senders, 40MB)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, "scheme              receiverToR          proxyToR"); err != nil {
		return err
	}
	for _, s := range []incastproxy.Scheme{incastproxy.Baseline, incastproxy.ProxyNaive, incastproxy.ProxyStreamlined} {
		res, err := incastproxy.RunIncast(incastproxy.IncastSpec{
			Scheme: s, Degree: 8, TotalBytes: 40 * incastproxy.MB, Runs: 1, Seed: 7,
		})
		if err != nil {
			return err
		}
		rr := res.Runs[0]
		if _, err := fmt.Fprintf(out, "%-18s  max=%-10v d=%-6d max=%-10v t=%d\n",
			s, rr.ReceiverToRMaxQueue, rr.ReceiverToRDrops, rr.ProxyToRMaxQueue, rr.ProxyToRTrims); err != nil {
			return err
		}
	}
	return nil
}

// check exits through fatal on a non-nil error.
func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	// Best effort: the exit status reports the failure if stderr is gone too.
	_, _ = fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
