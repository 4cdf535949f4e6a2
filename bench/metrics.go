package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric the benchmark prints. The lists below are the
// benchmark's side of BENCHMARK.json; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"cell_baseline", "Fig 2 degree-8 40 MB cell, Baseline: drop + RTO + go-back-N with no proxy and no trimming; the bypass for proxy/trim/NACK changes"},
	{"cell_streamlined", "Same cell, ProxyStreamlined: trim -> proxy NACK -> retransmit; the event loop is >95% of the op, so per-packet cost of sim/netsim/transport/proxy shows"},
	{"epoch_fanin", "4000 senders on a 2x4096-host fabric, 16 MB: fabric build, FIB and flow set-up are ~80% of the op and the event loop <20%; topo/harness work shows, packet-path work does not"},
	{"relay_stream", "Live path over loopback TCP: dial via relay, stream 4 MiB one way, half-close, read the sink's count back; splice ~90%, handshake ~7%; no simulator code runs"},
}

// endToEnd are the gated metrics, the same five on every workload.
var endToEnd = []metricDef{
	{"op_cost_p50", "cal", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_mb_per_op", "MB", lower, 0.03},
	{"peak_rss_mb", "MB", lower, 0.15},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the traced run's metrics, to which tracedDefs adds hostDefs. A layer that does no work on a
// workload reports 0 there: the relay.* and wire.* op figures on the DES
// workloads, the simulated statistics and shares on relay_stream.
var perLayer = []metricDef{
	{"sim.schedule_fire_ns", "ns", lower, 0},
	{"sim.schedule_fire_allocs", "count", lower, 0},
	{"sim.timer_rearm_ns", "ns", lower, 0},
	{"sim.events_per_op", "count", lower, 0},
	{"sim.events_per_s", "1/s", higher, 0},
	{"sim.allocs_per_event", "count", lower, 0},
	{"sim.shard2_speedup", "x", higher, 0},

	{"netsim.port_send_ns", "ns", lower, 0},
	{"netsim.port_send_allocs", "count", lower, 0},
	{"netsim.switch_forward_ns", "ns", lower, 0},
	{"netsim.trim_ns", "ns", lower, 0},
	{"netsim.recv_tor_drops", "count", lower, 0},
	{"netsim.proxy_tor_trims", "count", lower, 0},
	{"netsim.recv_tor_max_queue_mb", "MB", lower, 0},
	{"netsim.proxy_tor_max_queue_mb", "MB", lower, 0},

	{"transport.pkt_ns", "ns", lower, 0},
	{"transport.pkt_allocs", "count", lower, 0},
	{"transport.pkts_sent", "count", lower, 0},
	{"transport.retransmits", "count", lower, 0},
	{"transport.timeouts", "count", lower, 0},
	{"transport.nacks", "count", lower, 0},
	{"transport.retx_ratio", "ratio", lower, 0},

	{"proxy.streamlined_fwd_ns", "ns", lower, 0},
	{"proxy.streamlined_fwd_allocs", "count", lower, 0},
	{"proxy.streamlined_nack_ns", "ns", lower, 0},
	{"proxy.streamlined_nack_allocs", "count", lower, 0},

	{"topo.build_8x8_ms", "ms", lower, 0},
	{"topo.build_32x128_ms", "ms", lower, 0},
	{"topo.build_32x128_allocs", "count", lower, 0},
	{"topo.pathrtt_all_ms", "ms", lower, 0},

	{"workload.topo_build_share", "ratio", lower, 0},
	{"workload.flows_share", "ratio", lower, 0},
	{"workload.loop_share", "ratio", higher, 0},
	{"workload.ict_ms", "ms", lower, 0},

	{"obs.metrics_overhead_pct", "%", lower, 0},
	{"obs.trace_overhead_pct", "%", lower, 0},

	{"relay.dial_ms_p50", "ms", lower, 0},
	{"relay.dial_ms_tail", "ms", lower, 0},
	{"relay.dial_share", "ratio", lower, 0},
	{"relay.stream_mb_per_s", "MB/s", higher, 0},
	{"relay.drain_ms_p50", "ms", lower, 0},
	{"relay.close_ms_p50", "ms", lower, 0},
	{"relay.op_wall_ms_tail", "ms", lower, 0},
	{"relay.allocs_per_conn", "count", lower, 0},
	{"relay.accepted", "count", higher, 0},
	{"relay.shed", "count", lower, 0},
	{"relay.bytes_up_per_conn", "B", higher, 0},

	{"wire.dial_roundtrip_ns", "ns", lower, 0},
	{"wire.dial_roundtrip_allocs", "count", lower, 0},

	{"runner.parallel2_speedup", "x", higher, 0},

	{"trace.overhead_pct", "%", lower, 0},
}

// hostDefs describe the host during the run. Every run prints them; the
// traced run also reports them as per-layer metrics. None is ever gated.
var hostDefs = []metricDef{
	{"host.calib_ms_p50", "ms", lower, 0},
	{"host.calib_spread_pct", "%", lower, 0},
	{"host.op_wall_ms_p50", "ms", lower, 0},
	{"host.op_wall_ms_tail", "ms", lower, 0},
	{"host.tail_pctile", "pct", higher, 0},
	{"host.ops_per_s", "1/s", higher, 0},
	{"host.gc_cycles_per_op", "count", lower, 0},
}

// tracedDefs is the per_layer list of BENCHMARK.json.
func tracedDefs() []metricDef {
	return append(perLayer[:len(perLayer):len(perLayer)], hostDefs...)
}

// report is what one run found.
type report struct {
	header       string
	attempted    int
	failed       int
	firstFailure error
	values       map[string]float64
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// emit prints the header, then every metric of defs and of extra by name with
// its value and unit, then the result object, whose metrics are exactly defs.
// A metric the run did not set prints as 0.
func (r *report) emit(w io.Writer, defs, extra []metricDef) error {
	fmt.Fprintln(w, r.header)
	fmt.Fprintf(w, "%-32s %d\n%-32s %d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]resultValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = resultValue{r.values[d.Name], d.Unit}
	}
	for _, d := range append(defs[:len(defs):len(defs)], extra...) {
		fmt.Fprintf(w, "%-32s %.6g %s\n", d.Name, r.values[d.Name], d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
