// Command figures regenerates every figure of the paper's evaluation as
// printed series (see DESIGN.md's experiment index and EXPERIMENTS.md for
// paper-vs-measured records).
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
package main

import (
	"flag"
	"fmt"
	"os"

	incastproxy "incastproxy"
	"incastproxy/internal/cliutil"
	"incastproxy/internal/control"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "1 | 2l | 2r | 3 | 4 | 5a | 5b | adaptive | detect | modelerr | all")
		full     = flag.Bool("full", false, "paper-scale parameters (5 runs, 100MB, 6 latencies)")
		fast     = flag.Bool("fast", false, "evaluate sweep cells with the analytical model instead of the simulator (figs 2l/2r/3 only; see -fig modelerr for its error bounds)")
		summary  = flag.Bool("summary", false, "print only §4.2-style mean reductions")
		packets  = flag.Int("packets", 200_000, "samples for the CDF figures")
		parallel = flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = serial); output is byte-identical at any setting")
		policy   = flag.String("policy", "", "adaptive controller thresholds, key=value,... applied over defaults (-fig adaptive)")
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
	if *policy != "" {
		cc, err := control.ParseConfig(*policy)
		if err != nil {
			fatal(err)
		}
		sweep.Policy = cc
	}

	sweep.Fast = *fast
	if *fast {
		switch *fig {
		case "all", "2l", "2r", "3":
		default:
			fatal(fmt.Errorf("-fast only covers the sweep figures (-fig 2l|2r|3); figure %q needs the packet-level simulator", *fig))
		}
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
		if err := figure1(out); err != nil {
			fatal(err)
		}
	}
	if runFig("2l") {
		pts, err := incastproxy.Figure2Left(sweep)
		if err != nil {
			fatal(err)
		}
		if !*summary {
			incastproxy.WriteFigureTable(out, "Figure 2 (Left): ICT vs incast degree", pts)
		}
		printReductions(out, "Figure 2 (Left)", pts)
	}
	if runFig("2r") {
		pts, err := incastproxy.Figure2Right(sweep)
		if err != nil {
			fatal(err)
		}
		if !*summary {
			incastproxy.WriteFigureTable(out, "Figure 2 (Right): ICT vs incast size", pts)
		}
		printReductions(out, "Figure 2 (Right)", pts)
	}
	if runFig("3") {
		pts, err := incastproxy.Figure3(sweep)
		if err != nil {
			fatal(err)
		}
		if !*summary {
			incastproxy.WriteFigureTable(out, "Figure 3: ICT vs long-haul link latency (log-log in paper)", pts)
		}
		printReductions(out, "Figure 3", pts)
	}
	if runFig("adaptive") {
		pts, err := incastproxy.FigureAdaptive(sweep)
		if err != nil {
			fatal(err)
		}
		if !*summary {
			incastproxy.WriteFigureTable(out,
				"Adaptive control plane: ICT vs incast size, plus cross-traffic and proxy-crash stress rows", pts)
		}
		fmt.Fprintf(out, "Adaptive mean reductions: static=%.2f%% adaptive=%.2f%%\n\n",
			incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100,
			incastproxy.MeanReduction(pts, incastproxy.SchemeAdaptive)*100)
	}
	if runFig("modelerr") {
		pts, err := incastproxy.FigureModelError(sweep)
		if err != nil {
			fatal(err)
		}
		if !*summary {
			incastproxy.WriteModelErrorTable(out,
				"Sim vs analytical model: per-cell prediction error over the sweep grid", pts)
		}
		fmt.Fprintf(out, "Model error: worst |ICT| deviation %.1f%% across %d cells\n\n",
			incastproxy.MaxAbsModelError(pts)*100, len(pts))
	}
	if runFig("detect") && !*summary {
		pts, err := incastproxy.FigureDetectLatency(sweep)
		if err != nil {
			fatal(err)
		}
		incastproxy.WriteDetectLatencyTable(out,
			"Detection-to-resteer latency: adaptive control plane, size axis (windowed quantiles)", pts)
		fmt.Fprintln(out)
	}
	if runFig("4") && !*summary {
		incastproxy.WriteCDFTable(out, "Figure 4: user-space naive proxy per-packet latency (paper p99=359.17us)",
			incastproxy.Figure4(*packets, 1))
	}
	if runFig("5a") && !*summary {
		incastproxy.WriteCDFTable(out, "Figure 5a: eBPF lower-bound overhead, modeled (paper median=0.42us)",
			incastproxy.Figure5a(*packets, 0.05, 2))
		incastproxy.WriteCDFTable(out, "Figure 5a: real Go packet-program runtime, measured",
			incastproxy.Figure5aMeasured(*packets, 0.05))
	}
	if runFig("5b") && !*summary {
		incastproxy.WriteCDFTable(out, "Figure 5b: stack-inclusive upper bound (paper median=325.92us)",
			incastproxy.Figure5b(*packets, 3))
	}
}

// figure1 prints the bottleneck-shift telemetry illustrated by Figure 1:
// the hot down-ToR queue moves from the receiver to the proxy.
func figure1(out *os.File) error {
	fmt.Fprintln(out, "# Figure 1: congestion point (max down-ToR queue occupancy, 8x senders, 40MB)")
	fmt.Fprintln(out, "scheme              receiverToR          proxyToR")
	for _, s := range []incastproxy.Scheme{incastproxy.Baseline, incastproxy.ProxyNaive, incastproxy.ProxyStreamlined} {
		res, err := incastproxy.RunIncast(incastproxy.IncastSpec{
			Scheme: s, Degree: 8, TotalBytes: 40 * incastproxy.MB, Runs: 1, Seed: 7,
		})
		if err != nil {
			return err
		}
		rr := res.Runs[0]
		fmt.Fprintf(out, "%-18s  max=%-10v d=%-6d max=%-10v t=%d\n",
			s, rr.ReceiverToRMaxQueue, rr.ReceiverToRDrops, rr.ProxyToRMaxQueue, rr.ProxyToRTrims)
	}
	return nil
}

func printReductions(out *os.File, name string, pts []incastproxy.FigurePoint) {
	fmt.Fprintf(out, "%s mean reductions: naive=%.2f%% streamlined=%.2f%%\n\n",
		name,
		incastproxy.MeanReduction(pts, incastproxy.ProxyNaive)*100,
		incastproxy.MeanReduction(pts, incastproxy.ProxyStreamlined)*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
