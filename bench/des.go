package main

import (
	"fmt"
	"runtime"
	"time"

	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// How a DES op is run. Every variant simulates the same spec with the same
// seed; they differ only in what observes the run.
const (
	desPlain    = iota // default Obs (metrics on), no hook: the gated op
	desSpans           // an OnBuild hook records the layer spans
	desObsOff          // ObsConfig{Disable: true}: the uninstrumented floor
	desObsTrace        // ObsConfig{Trace: true}
	desVariants
)

// desSignature is what must repeat exactly from op to op: the simulator is
// deterministic, so any difference is a defect, not noise.
type desSignature struct {
	ICT         units.Duration
	Events      uint64
	PktsSent    uint64
	Retransmits uint64
}

// desWorkload runs one workload.Spec in a closed loop, one op in flight.
type desWorkload struct {
	spec   workload.Spec
	warmup int
	ref    [desVariants]*desSignature // op 0 of each variant
	last   workload.RunResult         // latest plain result: the simulated statistics
}

// largeFabric is the 4096-hosts-per-datacenter fabric of epoch_fanin.
func largeFabric() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.Leaves, cfg.ServersPerLeaf = 32, 128
	return cfg
}

func epochSpec(seed int64) workload.Spec {
	return workload.Spec{Scheme: workload.ProxyStreamlined, Topo: largeFabric(),
		Degree: 4000, TotalBytes: 16 * units.MB, Runs: 1, Seed: seed}
}

func cellSpec(scheme workload.Scheme, seed int64) workload.Spec {
	return workload.Spec{Scheme: scheme, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: seed}
}

func newDESWorkload(name string, seed int64) *desWorkload {
	switch name {
	case "cell_baseline":
		return &desWorkload{spec: cellSpec(workload.Baseline, seed), warmup: 2}
	case "cell_streamlined":
		return &desWorkload{spec: cellSpec(workload.ProxyStreamlined, seed), warmup: 1}
	case "epoch_fanin":
		return &desWorkload{spec: epochSpec(seed), warmup: 1}
	}
	return nil
}

func (d *desWorkload) variants() int { return desVariants }

// blockOps is 1: the calibration kernel runs between every two ops.
func (d *desWorkload) blockOps() int { return 1 }

func (d *desWorkload) setup() error {
	d.ref = [desVariants]*desSignature{}
	for i := 0; i < d.warmup; i++ {
		if err := d.op(desPlain, -1, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func (d *desWorkload) teardown() error { return nil }

// op runs the spec once and checks the result against op 0. With desSpans
// it records workload.Run and its three phases: topo.Build is entry to the
// OnBuild callback, workload.flows is the callback to a sentinel event the
// hook schedules at t=0, sim.loop is the sentinel to return.
func (d *desWorkload) op(variant, id int, rec *recorder) error {
	spec := d.spec
	var root, phase int
	switch variant {
	case desSpans:
		root = rec.start("workload.Run", id, -1)
		phase = rec.start("topo.Build", id, root)
		spec.OnBuild = func(_ *topo.Network, e *sim.Engine) {
			rec.end(phase)
			phase = rec.start("workload.flows", id, root)
			e.Schedule(0, func(*sim.Engine) {
				rec.end(phase)
				phase = rec.start("sim.loop", id, root)
			})
		}
	case desObsOff:
		spec.Obs = &workload.ObsConfig{Disable: true}
	case desObsTrace:
		spec.Obs = &workload.ObsConfig{Trace: true}
	}
	res, err := workload.Run(spec)
	if variant == desSpans {
		rec.end(phase)
		rec.end(root)
	}
	if err != nil {
		return err
	}
	rr := res.Runs[0]
	if !rr.Completed {
		return fmt.Errorf("incast not completed")
	}
	sig := desSignature{rr.ICT, rr.Events, rr.PktsSent, rr.Retransmits}
	if d.ref[variant] == nil {
		d.ref[variant] = &sig
	} else if *d.ref[variant] != sig {
		return fmt.Errorf("nondeterministic op: %+v, op 0 was %+v", sig, *d.ref[variant])
	}
	if variant == desPlain {
		d.last = rr
		return nil
	}
	// Observation must not change what is simulated: same ICT as the
	// plain op, and the span hook costs exactly its one sentinel event.
	if plain := d.ref[desPlain]; plain != nil {
		if sig.ICT != plain.ICT {
			return fmt.Errorf("variant %d ICT %v differs from the plain op's %v", variant, sig.ICT, plain.ICT)
		}
		if variant == desSpans && sig.Events != plain.Events+1 {
			return fmt.Errorf("traced op ran %d events, want the plain op's %d + 1", sig.Events, plain.Events)
		}
	}
	return nil
}

// layerMetrics reports the simulated statistics of the plain op and the
// per-event rates of the traced run's plain ops.
func (d *desWorkload) layerMetrics(m map[string]float64, tr *window, spans []span) {
	rr := d.last
	events := float64(rr.Events)
	m["sim.events_per_op"] = events
	if w := median(durationsMS(tr.wall[desPlain])); w > 0 {
		m["sim.events_per_s"] = events / (w / 1e3)
	}
	m["sim.allocs_per_event"] = median(tr.allocs[desPlain]) / events
	m["netsim.recv_tor_drops"] = float64(rr.ReceiverToRDrops)
	m["netsim.proxy_tor_trims"] = float64(rr.ProxyToRTrims)
	m["netsim.recv_tor_max_queue_mb"] = float64(rr.ReceiverToRMaxQueue) / 1e6
	m["netsim.proxy_tor_max_queue_mb"] = float64(rr.ProxyToRMaxQueue) / 1e6
	m["transport.pkts_sent"] = float64(rr.PktsSent)
	m["transport.retransmits"] = float64(rr.Retransmits)
	m["transport.timeouts"] = float64(rr.Timeouts)
	m["transport.nacks"] = float64(rr.Nacks)
	m["transport.retx_ratio"] = float64(rr.Retransmits) / float64(rr.PktsSent)
	m["workload.ict_ms"] = rr.ICT.Milliseconds()

	self := selfTimes(spans)
	if total := self["workload.Run"] + self["topo.Build"] + self["workload.flows"] + self["sim.loop"]; total > 0 {
		m["workload.topo_build_share"] = self["topo.Build"].Seconds() / total.Seconds()
		m["workload.flows_share"] = self["workload.flows"].Seconds() / total.Seconds()
		m["workload.loop_share"] = self["sim.loop"].Seconds() / total.Seconds()
	}
	m["obs.metrics_overhead_pct"] = 100 * (median(ratios(tr.cost[desPlain], tr.cost[desObsOff])) - 1)
	m["obs.trace_overhead_pct"] = tr.overheadPct(desObsTrace)
	m["trace.overhead_pct"] = tr.overheadPct(desSpans)
}

// speedups measures the two parallel execution knobs ROADMAP names. Both are
// raw wall-clock ratios of single runs: informational, never gated.
func speedups(m map[string]float64, seed int64) error {
	timeRun := func(spec workload.Spec) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		_, err := workload.Run(spec)
		return time.Since(t0), err
	}
	cell := cellSpec(workload.Baseline, seed)
	cell.Runs = 4
	cell.Parallel = 1
	serial, err := timeRun(cell)
	if err != nil {
		return err
	}
	cell.Parallel = 2
	par, err := timeRun(cell)
	if err != nil {
		return err
	}
	m["runner.parallel2_speedup"] = serial.Seconds() / par.Seconds()

	epoch := epochSpec(seed)
	one, err := timeRun(epoch)
	if err != nil {
		return err
	}
	epoch.Shards, epoch.ShardWorkers = 2, 2
	two, err := timeRun(epoch)
	if err != nil {
		return err
	}
	m["sim.shard2_speedup"] = one.Seconds() / two.Seconds()
	return nil
}
