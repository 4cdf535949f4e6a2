// Command incastsim runs one simulated inter-datacenter incast experiment
// and prints its completion time and telemetry.
//
// Usage:
//
//	incastsim -scheme streamlined -degree 8 -size 100MB -runs 5
//	incastsim -scheme baseline -degree 4 -size 40MB -inter-latency 10ms
//	incastsim -scheme adaptive -policy onset-depth=4MB,max-switches=1
//	incastsim -runs 8 -parallel 0     # fan runs across every CPU; same output
//	incastsim -estimate               # print the analytical model's prediction beside each run
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	incastproxy "incastproxy"
	"incastproxy/internal/cliutil"
	"incastproxy/internal/control"
	"incastproxy/internal/model"
	"incastproxy/internal/obs"
	"incastproxy/internal/runner"
)

func main() {
	var (
		schemeFlag  = flag.String("scheme", "all", "baseline | naive | streamlined | adaptive | all")
		degree      = flag.Int("degree", 4, "number of incast senders")
		sizeFlag    = flag.String("size", "100MB", "total incast size (e.g. 40MB, 1GB)")
		runs        = flag.Int("runs", 5, "independent runs (avg/min/max reported)")
		parallel    = flag.Int("parallel", 1, "worker goroutines for the independent runs (0 = one per CPU); output is byte-identical at any setting")
		seed        = flag.Int64("seed", 1, "base random seed")
		interLatRaw = flag.String("inter-latency", "1ms", "long-haul link propagation delay")
		noEarly     = flag.Bool("no-early-feedback", false, "streamlined ablation: relay trimmed headers instead of NACKing")
		iwScale     = flag.Float64("iw-scale", 1.0, "initial window as a multiple of 1 BDP")
		traceJSON   = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
		queueCSV    = flag.String("queue-csv", "", "write the receiver and proxy down-ToR queue occupancy of each scheme's run, sampled every 50us, to this CSV file (time_us,scheme,queue,bytes)")
		manifest    = flag.Bool("manifest", false, "print each run's manifest (seed, config hash)")
		policyFlag  = flag.String("policy", "", "adaptive controller thresholds, key=value,... applied over defaults (scheme adaptive; see internal/control)")
		leaves      = flag.Int("leaves", 0, "override leaf switches per DC (0 = default topology)")
		servers     = flag.Int("servers-per-leaf", 0, "override servers per leaf (0 = default topology); raise with -leaves for 10k-sender epochs")
		estimate    = flag.Bool("estimate", false, "print the analytical model's prediction (internal/model) beside each scheme's simulated result, with per-metric relative error")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf     = flag.String("memprofile", "", "write an allocation profile of the whole invocation to this file (go tool pprof -sample_index=alloc_space)")
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

	var policy control.Config
	if *policyFlag != "" {
		var err error
		if policy, err = control.ParseConfig(*policyFlag); err != nil {
			fatal(err)
		}
	}

	size, err := cliutil.ParseSize(*sizeFlag)
	if err != nil {
		fatal(err)
	}
	interLat, err := cliutil.ParseDuration(*interLatRaw)
	if err != nil {
		fatal(err)
	}
	topoCfg := incastproxy.DefaultTopo()
	topoCfg.InterDelay = interLat
	if *leaves > 0 {
		topoCfg.Leaves = *leaves
	}
	if *servers > 0 {
		topoCfg.ServersPerLeaf = *servers
	}

	schemes, err := parseSchemes(*schemeFlag)
	if err != nil {
		fatal(err)
	}

	var traces []*incastproxy.Tracer
	var baseline incastproxy.Duration
	for _, s := range schemes {
		spec := incastproxy.IncastSpec{
			Scheme:          s,
			Degree:          *degree,
			TotalBytes:      size,
			Runs:            *runs,
			Parallel:        runner.Parallelism(*parallel),
			Seed:            *seed,
			Topo:            topoCfg,
			NoEarlyFeedback: *noEarly,
			IWScale:         *iwScale,
		}
		if s == incastproxy.SchemeAdaptive {
			spec.Control = policy
		}
		if *traceJSON != "" || *queueCSV != "" {
			spec.Runs = 1 // one trace per scheme
			spec.Obs = &incastproxy.ObsConfig{Trace: true}
		}
		res, err := incastproxy.RunIncast(spec)
		if err != nil {
			fatal(err)
		}
		rr := res.Runs[0]
		if rr.Trace != nil {
			traces = append(traces, rr.Trace)
		}
		fmt.Printf("%-18s ICT avg=%v min=%v max=%v", s, res.ICT.Avg(), res.ICT.Min(), res.ICT.Max())
		if s == incastproxy.Baseline {
			baseline = res.ICT.Avg()
		} else if baseline > 0 {
			fmt.Printf("  reduction=%.2f%%", (1-float64(res.ICT.Avg())/float64(baseline))*100)
		}
		fmt.Printf("\n  timeouts=%d retx=%d nacks=%d  rxToR(max=%v drops=%d)  pxToR(max=%v trims=%d)\n",
			rr.Timeouts, rr.Retransmits, rr.Nacks,
			rr.ReceiverToRMaxQueue, rr.ReceiverToRDrops, rr.ProxyToRMaxQueue, rr.ProxyToRTrims)
		fmt.Printf("  fct p50=%v p99=%v max=%v  events=%d\n",
			rr.FlowFCT.P50, rr.FlowFCT.P99, rr.FlowFCT.Max, rr.Events)
		if s == incastproxy.SchemeAdaptive {
			fmt.Printf("  route=%s onsets=%d rehomed(flows=%d bytes=%v) kept-direct=%d steers=%v\n",
				rr.FinalRoute, rr.Onsets, rr.RehomedFlows, rr.RehomedBytes, rr.KeptDirect, rr.Steers)
		}
		if *estimate {
			printEstimate(s, spec, res)
		}
		if *manifest && rr.Manifest != nil {
			fmt.Printf("  %s\n", rr.Manifest)
		}
	}

	if *traceJSON != "" && len(traces) > 0 {
		// Multiple schemes merge onto one timeline (their events carry
		// distinct flow labels); Perfetto renders them side by side.
		merged := obs.NewTracer()
		for _, t := range traces {
			merged.Append(t)
		}
		if err := cliutil.DumpTrace(*traceJSON, merged); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace written to %s (open in https://ui.perfetto.dev)\n", *traceJSON)
	}

	if *queueCSV != "" && len(traces) > 0 {
		f, err := os.Create(*queueCSV)
		if err != nil {
			fatal(err)
		}
		if err := writeQueueCSV(f, schemes, traces); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("queue time series written to %s\n", *queueCSV)
	}
}

// writeQueueCSV writes the down-ToR occupancy samples of each scheme's trace
// (the "queue recv-tor" / "queue proxy-tor" counter tracks), one row per
// sample: how Figure 1's "the congestion point moves" story is visualized.
func writeQueueCSV(w io.Writer, schemes []incastproxy.Scheme, traces []*incastproxy.Tracer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "time_us,scheme,queue,bytes")
	for i, tr := range traces {
		for _, ev := range tr.Events() {
			if ev.Ph == obs.PhaseCounter && ev.Cat == "queue" {
				fmt.Fprintf(bw, "%.6f,%v,%s,%.0f\n",
					float64(ev.At)/1e6, schemes[i], strings.TrimPrefix(ev.Name, "queue "), ev.Val)
			}
		}
	}
	return bw.Flush()
}

// printEstimate prints the analytical model's prediction for the spec the
// simulator just ran, with each metric's signed relative error against the
// measurement. Adaptive runs re-steer mid-epoch, which the model does not
// cover; for them it prints the two candidate-path predictions the
// controller chooses between instead.
func printEstimate(s incastproxy.Scheme, spec incastproxy.IncastSpec, res *incastproxy.IncastResult) {
	if s == incastproxy.SchemeAdaptive {
		base := spec
		base.Scheme = incastproxy.Baseline
		prm, err := model.FromSpec(base)
		if err != nil {
			fmt.Printf("  model: %v\n", err)
			return
		}
		d, p := model.Compare(prm)
		fmt.Printf("  model: adaptive is not modeled; candidate paths direct=%v proxied=%v (sim picked %v)\n",
			d.ICT, p.ICT, res.ICT.Avg())
		return
	}
	prm, err := model.FromSpec(spec)
	if err != nil {
		fmt.Printf("  model: %v\n", err)
		return
	}
	pred := model.Predict(prm)
	rr := res.Runs[0]
	fmt.Printf("  model[%s] ict=%v (%+.1f%%)  p50=%v (%+.1f%%)  p99=%v (%+.1f%%)  goodput=%v"+
		"  prop=%v serve=%v churn=%v stall=%v spread=%v trims=%d\n",
		pred.Regime, pred.ICT, relPct(res.ICT.Avg(), pred.ICT),
		pred.P50, relPct(rr.FlowFCT.P50, pred.P50),
		pred.P99, relPct(rr.FlowFCT.P99, pred.P99), pred.Goodput,
		pred.Prop, pred.Serve, pred.Churn, pred.Stall, pred.Spread, pred.Trims)
}

// relPct is the signed relative error of a prediction in percent; negative
// means the model under-predicts the simulator.
func relPct(sim, mod incastproxy.Duration) float64 {
	if sim == 0 {
		return 0
	}
	return 100 * (float64(mod) - float64(sim)) / float64(sim)
}

func parseSchemes(s string) ([]incastproxy.Scheme, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return []incastproxy.Scheme{incastproxy.Baseline}, nil
	case "naive":
		return []incastproxy.Scheme{incastproxy.ProxyNaive}, nil
	case "streamlined":
		return []incastproxy.Scheme{incastproxy.ProxyStreamlined}, nil
	case "adaptive":
		return []incastproxy.Scheme{incastproxy.SchemeAdaptive}, nil
	case "all":
		return append(incastproxy.Schemes(), incastproxy.SchemeAdaptive), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "incastsim:", err)
	os.Exit(1)
}
