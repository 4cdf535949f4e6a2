// Command proxybench reproduces the §5 host-stack measurements: per-packet
// latency CDFs for the user-space naive proxy (Figure 4) and the eBPF
// streamlined proxy's lower/upper bounds (Figure 5), plus the measured
// runtime of the real Go implementation of the proxy's packet program.
//
// Usage:
//
//	proxybench             # all three figures at 200k packets
//	proxybench -fig 4      # only Figure 4
//	proxybench -points 21  # also print CDF plot points
//	proxybench -soak       # chaos-soak the live relay path instead
//	proxybench -soak -soak-conns 64 -soak-capacity 16 -seed 7
//	proxybench -soak -trace out.json -metrics-dump m.json -log-json
//
// -soak drives the real relay data plane (loopback TCP, the production
// Server/DialViaRelay code) through a seeded fault-injecting proxy at 2x
// admission capacity and verifies the overload contract: explicit sheds,
// bounded completion times, a clean drain. Exit 1 on contract violation.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	incastproxy "incastproxy"
	"incastproxy/internal/chaosnet"
	"incastproxy/internal/cliutil"
	"incastproxy/internal/obs"
	"incastproxy/internal/stats"
	"incastproxy/internal/units"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "4 | 5a | 5b | all")
		packets = flag.Int("packets", 200_000, "packets per distribution")
		nackPct = flag.Float64("nack-fraction", 0.05, "fraction of trimmed-header packets (Fig 5a mix)")
		points  = flag.Int("points", 0, "also print N evenly spaced CDF points per figure")
		seed    = flag.Int64("seed", 1, "model random seed")
		debugAt = flag.String("debug-addr", "", "serve /metrics + /debug/pprof on this address; keeps the process alive after the run until interrupted")

		soak     = flag.Bool("soak", false, "run the live-relay chaos soak instead of the figure benchmarks")
		soakCap  = flag.Int("soak-capacity", 8, "relay admission cap (MaxConns) for -soak")
		soakCons = flag.Int("soak-conns", 0, "concurrent dials for -soak (default 2x capacity)")
		soakSize = flag.Int("soak-bytes", 64<<10, "echo payload per admitted connection for -soak")

		logJSON     = flag.Bool("log-json", false, "log as JSON lines instead of text")
		metricsDump = flag.String("metrics-dump", "", "write the final metrics snapshot to this file as JSON on exit")
		tracePath   = flag.String("trace", "", "with -soak: write a Chrome trace of every relayed flow (one causal span tree per dial) to this file")
	)
	flag.Parse()

	log := cliutil.NewLogger(*logJSON)
	reg := obs.NewRegistry()
	if *soak {
		runSoak(soakOpts{
			reg: reg, log: log, seed: *seed, capacity: *soakCap,
			conns: *soakCons, payload: *soakSize, debugAt: *debugAt,
			metricsDump: *metricsDump, tracePath: *tracePath,
		})
		return
	}
	if *debugAt != "" {
		_, dl, err := obs.ServeDebug(*debugAt, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proxybench:", err)
			os.Exit(1)
		}
		fmt.Printf("proxybench: debug endpoint on http://%v/metrics (pprof under /debug/pprof/)\n", dl.Addr())
	}
	pktCount := reg.Counter("proxybench_packets_total")
	figCount := reg.Counter("proxybench_figures_total")
	latP99 := reg.Gauge("proxybench_last_p99_us")

	show := func(name string) bool { return *fig == "all" || *fig == name }
	emit := func(title string, c *stats.CDF) {
		incastproxy.WriteCDFTable(os.Stdout, title, c)
		if *points > 1 {
			for _, p := range c.Points(*points) {
				fmt.Printf("cdf %g %v\n", p.Prob, p.Latency)
			}
		}
		pktCount.Add(uint64(*packets))
		figCount.Add(1)
		latP99.Set(int64(c.Quantile(0.99) / units.Duration(units.Microsecond)))
		fmt.Println()
	}

	if show("4") {
		emit("Figure 4: user-space naive proxy per-packet latency (paper p99=359.17us)",
			incastproxy.Figure4(*packets, *seed))
	}
	if show("5a") {
		emit(fmt.Sprintf("Figure 5a: eBPF lower bound, modeled (%.0f%% NACK path; paper median=0.42us)", *nackPct*100),
			incastproxy.Figure5a(*packets, *nackPct, *seed+1))
		emit("Figure 5a: real Go packet-program runtime, measured on this machine",
			incastproxy.Figure5aMeasured(*packets, *nackPct))
	}
	if show("5b") {
		emit("Figure 5b: stack-inclusive upper bound (paper median=325.92us)",
			incastproxy.Figure5b(*packets, *seed+2))
	}

	if err := cliutil.DumpMetrics(*metricsDump, "proxybench", *seed, reg); err != nil {
		log.Error("proxybench: metrics dump failed", "err", err)
		os.Exit(1)
	}
	if *debugAt != "" {
		fmt.Println("proxybench: run complete; debug endpoint still serving (interrupt to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// soakOpts parameterizes one CLI soak run.
type soakOpts struct {
	reg         *obs.Registry
	log         *slog.Logger
	seed        int64
	capacity    int
	conns       int
	payload     int
	debugAt     string
	metricsDump string
	tracePath   string
}

// runSoak is the CLI face of internal/chaosnet's soak harness: the same
// invariants `make soak` enforces in CI, runnable by hand with a chosen
// seed and scale. With -trace it records the full causal story — one span
// tree per relayed flow (client dial, relay admission, target dial,
// splice) interleaved with shed and injected-fault instants — as Chrome
// trace JSON.
func runSoak(o soakOpts) {
	if o.debugAt != "" {
		_, dl, err := obs.ServeDebug(o.debugAt, o.reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proxybench:", err)
			os.Exit(1)
		}
		fmt.Printf("proxybench: debug endpoint on http://%v/metrics\n", dl.Addr())
	}
	var tracer *obs.Tracer
	if o.tracePath != "" {
		tracer = obs.NewTracerWithClock(cliutil.WallClock(time.Now))
	}
	cfg := chaosnet.SoakConfig{
		Seed:         o.seed,
		Capacity:     o.capacity,
		Conns:        o.conns,
		PayloadBytes: o.payload,
		Faults:       chaosnet.WANFaults(time.Sleep),
		IdleTimeout:  2 * time.Second,
		Now:          time.Now,
		Registry:     o.reg,
		Tracer:       tracer,
		Logger:       o.log,
	}
	res, err := chaosnet.RunSoak(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxybench: soak:", err)
		os.Exit(1)
	}
	fmt.Printf("soak: conns=%d admitted=%d shed=%d faulted=%d hung=%d p99=%v\n",
		res.Conns, res.Admitted, res.Shed, res.Faulted, res.Hung, res.P99)
	fmt.Printf("soak: server accepted=%d sheds=%d idleClosed=%d\n",
		res.ServerAccepted, res.ServerSheds, res.IdleClosed)
	if err := cliutil.DumpMetrics(o.metricsDump, "proxybench -soak", o.seed, o.reg); err != nil {
		fmt.Fprintln(os.Stderr, "proxybench:", err)
		os.Exit(1)
	}
	if err := cliutil.DumpTrace(o.tracePath, tracer); err != nil {
		fmt.Fprintln(os.Stderr, "proxybench:", err)
		os.Exit(1)
	}
	if err := res.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "proxybench:", err)
		os.Exit(1)
	}
	fmt.Println("soak: overload contract held")
}
