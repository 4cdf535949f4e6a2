// Command bench is the repository's benchmark (see README.md here and
// BENCHMARK.json at the repository root). One run measures one workload in
// one process:
//
//	bash bench/run.sh --workload cell_baseline --seed 7 --seconds 25 --trace 0
//
// prints every end-to-end metric by name with its unit and, as the last
// line, the result object. --trace 1 prints the per-layer metrics instead.
//
//	bash bench/run.sh -agree A.txt B.txt
//
// compares two sets of saved run outputs against the benchmark's bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is the timed window BENCHMARK.json asks for as run_seconds.
const defaultSeconds = 25

func main() {
	workload := flag.String("workload", "", "workload to run: cell_baseline, cell_streamlined, epoch_fanin or relay_stream")
	seed := flag.Int64("seed", 7, "seed of the workload's inputs")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans.json"), "where a traced run writes its spans")
	agree := flag.Bool("agree", false, "compare two files of saved run outputs: -agree A B")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -agree A B")
			os.Exit(2)
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the result. A run in which any op
// failed still prints its result, then fails.
func run(workload string, seed int64, seconds, trace int, spansPath string) error {
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	drv, err := newDriver(workload, seed)
	if err != nil {
		return err
	}
	// Pinned so that the op's goroutines (GC workers, the relay's copiers)
	// see the same parallelism on every host with at least two cores.
	runtime.GOMAXPROCS(2)
	r := &report{
		header: fmt.Sprintf("# incastbench workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d gomaxprocs=%d",
			workload, seed, seconds, trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		values: make(map[string]float64),
	}
	defs, extra := endToEnd, hostDefs
	if trace == 1 {
		defs, extra = tracedDefs(), nil
		err = tracedRunFor(drv, seed, seconds, spansPath, r)
	} else {
		err = gatedRun(drv, seconds, r)
	}
	if err != nil {
		return err
	}
	if err := r.emit(os.Stdout, defs, extra); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d ops failed; first: %v", r.failed, r.attempted, r.firstFailure)
	}
	return nil
}
