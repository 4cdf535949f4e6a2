package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// driver is what the run loop needs of a workload. Ops are closed-loop: the
// next one starts only when the previous one has returned.
type driver interface {
	// setup builds the fixtures and runs the fixed warm-up ops.
	setup() error
	// teardown releases the fixtures, joining every goroutine setup
	// started, and reports any fault the fixtures themselves counted.
	teardown() error
	// op runs one operation and checks its output. id is the op's index
	// in the timed window, -1 for a warm-up op; rec is only used by the
	// span-recording variant.
	op(variant, id int, rec *recorder) error
	// variants is how many ways the traced run observes an op; variant 0
	// is the gated op and variant 1 records spans.
	variants() int
	// blockOps is how many ops run between two calibration passes.
	blockOps() int
	// layerMetrics adds the workload's own per-layer metrics;
	// w is the traced window and spans what its span-recording ops left.
	layerMetrics(m map[string]float64, w *window, spans []span)
}

const (
	variantPlain = 0

	// maxBlocks sizes the window's per-block bookkeeping; a 60 s window
	// of 0.2 s blocks needs a tenth of it.
	maxBlocks = 4096

	// setupReps is how often a run sets up: set-up time is a single
	// sample per set-up, so the run reports the median of several.
	setupReps = 3
)

func newDriver(workload string, seed int64) (driver, error) {
	if workload == "relay_stream" {
		return newRelayWorkload(seed), nil
	}
	if d := newDESWorkload(workload, seed); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// window is the outcome of one timed window: per variant, the wall time,
// calibrated cost and allocations of every op, plus the calibration passes.
type window struct {
	wall   [][]time.Duration
	cost   [][]float64
	allocs [][]float64
	cal    []time.Duration
	failed int
	first  error // the first op failure, for the log
	mem0   runtime.MemStats
	mem1   runtime.MemStats
}

// overheadPct is how much more variant v cost than the plain op, in percent.
// Every round runs each variant once, so op i of v is compared with op i of
// the plain variant, its neighbour in time, and the median ratio is taken.
func (w *window) overheadPct(v int) float64 {
	return 100 * (median(ratios(w.cost[v], w.cost[variantPlain])) - 1)
}

func (w *window) attempted() int {
	n := 0
	for _, v := range w.wall {
		n += len(v)
	}
	return n
}

// runWindow runs blocks of ops for at least d, a calibration pass before the
// first block and after every block. Without a recorder every block is the
// plain variant. With one, the window is traced: blocks cycle through all the
// driver's variants for at least three rounds, ending on a whole round, and
// the Mallocs delta of every block is read too (reading it stops the world,
// so the gated window reads memory statistics only at its two ends).
func runWindow(drv driver, cal *calibrator, d time.Duration, rec *recorder) (*window, error) {
	traced := rec != nil
	nvar := 1
	if traced {
		nvar = drv.variants()
	}
	w := &window{
		wall:   make([][]time.Duration, nvar),
		cost:   make([][]float64, nvar),
		allocs: make([][]float64, nvar),
		cal:    make([]time.Duration, 0, maxBlocks+1),
	}
	for v := range w.wall {
		w.wall[v] = make([]time.Duration, 0, maxRelayOps)
	}
	pass := func() error {
		t, err := cal.measure()
		w.cal = append(w.cal, t)
		return err
	}
	// Sized up front, like the sample slices above, so that the window's
	// own bookkeeping allocates nothing between the two memory readings.
	blocks := make([][]time.Duration, 0, maxBlocks)
	blockVariant := make([]int, 0, maxBlocks)
	var b0, b1 runtime.MemStats
	n := drv.blockOps()
	id := 0

	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	if err := pass(); err != nil {
		return nil, err
	}
	for round := 0; time.Since(start) < d || traced && round < 3; round++ {
		for v := 0; v < nvar; v++ {
			if traced {
				runtime.ReadMemStats(&b0)
			}
			from := len(w.wall[v])
			for i := 0; i < n; i++ {
				t0 := time.Now()
				err := drv.op(v, id, rec)
				w.wall[v] = append(w.wall[v], time.Since(t0))
				id++
				if err != nil {
					w.failed++
					if w.first == nil {
						w.first = fmt.Errorf("op %d: %w", id-1, err)
					}
				}
			}
			if traced {
				runtime.ReadMemStats(&b1)
				w.allocs[v] = append(w.allocs[v], float64(b1.Mallocs-b0.Mallocs)/float64(n))
			}
			blocks = append(blocks, w.wall[v][from:])
			blockVariant = append(blockVariant, v)
			if err := pass(); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&w.mem1)

	for b, costs := range normalise(blocks, w.cal) {
		v := blockVariant[b]
		w.cost[v] = append(w.cost[v], costs...)
	}
	return w, nil
}

// setUp prepares a run reps times and returns the median set-up time. One
// set-up is what stands between process start and the first timed op:
// filling the calibration table, a first, range-checked kernel pass, the
// workload's fixtures, and its warm-up ops. All but the last set-up are torn
// down again. The table is allocated once: a second 16 MiB table, garbage or
// not by the time the heap peaks, made peak_rss_mb bimodal.
func setUp(drv driver, reps int) (*calibrator, float64, error) {
	var cal *calibrator
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if cal == nil {
			cal = newCalibrator()
		} else {
			cal.fill()
		}
		d, err := cal.measure()
		if err == nil {
			err = checkCalRange(d)
		}
		if err == nil {
			err = drv.setup()
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := drv.teardown(); err != nil {
				return nil, 0, err
			}
		}
	}
	return cal, median(times), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostMetrics describes the host during a window: never gated, but what a
// reader needs to judge how far the gated numbers can be trusted.
func hostMetrics(m map[string]float64, w *window) {
	calMS := durationsMS(w.cal)
	wallMS := durationsMS(w.wall[variantPlain])
	n := len(wallMS)
	m["host.calib_ms_p50"] = median(calMS)
	m["host.calib_spread_pct"] = 100 * (quantile(calMS, 0.9)/quantile(calMS, 0.1) - 1)
	m["host.op_wall_ms_p50"] = median(wallMS)
	m["host.tail_pctile"] = tailPercentile(n)
	m["host.op_wall_ms_tail"] = quantile(wallMS, tailPercentile(n)/100)
	var total time.Duration
	for _, d := range w.wall[variantPlain] {
		total += d
	}
	m["host.ops_per_s"] = float64(n) / total.Seconds()
	m["host.gc_cycles_per_op"] = float64(w.mem1.NumGC-w.mem0.NumGC) / float64(w.attempted())
}

// finish tears the fixtures down and books the window's ops into r. If the
// fixtures' own accounting disagrees with the ops', no op of the run can be
// trusted and all count as failed.
func finish(drv driver, w *window, r *report) {
	r.attempted, r.failed, r.firstFailure = w.attempted(), w.failed, w.first
	if err := drv.teardown(); err != nil {
		r.failed, r.firstFailure = r.attempted, err
	}
}

// gatedRun measures the end-to-end metrics: tracing off, every op the plain
// variant.
func gatedRun(drv driver, seconds int, r *report) error {
	cal, setupS, err := setUp(drv, setupReps)
	if err != nil {
		return err
	}
	w, err := runWindow(drv, cal, time.Duration(seconds)*time.Second, nil)
	if err != nil {
		return err
	}
	finish(drv, w, r)
	ops := float64(w.attempted())
	r.values["setup_s"] = setupS
	r.values["op_cost_p50"] = median(w.cost[variantPlain])
	r.values["allocs_per_op"] = float64(w.mem1.Mallocs-w.mem0.Mallocs) / ops
	r.values["alloc_mb_per_op"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1e6 / ops
	if r.values["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}
	hostMetrics(r.values, w)
	return nil
}

// tracedRunFor produces the per-layer metrics: the layer micro-loops and the
// two speed-up ratios (fixed work), then a window that alternates the plain
// op with its observed variants for what is left of the run's seconds.
func tracedRunFor(drv driver, seed int64, seconds int, spansPath string, r *report) error {
	start := time.Now()
	cal, _, err := setUp(drv, 1)
	if err != nil {
		return err
	}
	if err := layerSuite(r.values); err != nil {
		return err
	}
	if err := speedups(r.values, seed); err != nil {
		return err
	}
	rec := newRecorder()
	left := time.Duration(seconds)*time.Second - time.Since(start)
	w, err := runWindow(drv, cal, left, rec)
	if err != nil {
		return err
	}
	finish(drv, w, r)
	drv.layerMetrics(r.values, w, rec.spans)
	hostMetrics(r.values, w)
	if err := rec.write(spansPath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
