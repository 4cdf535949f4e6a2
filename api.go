// Package incastproxy reproduces "Mitigating Inter-datacenter Incast with
// a Proxy: The shortest path is not necessarily the fastest" (HotNets '25):
// a packet-level simulation study of routing inter-datacenter incast
// traffic through a proxy in the sending datacenter, plus the supporting
// systems the paper describes — the naive and streamlined proxy designs,
// host-stack overhead models, a real TCP connection-splitting relay, an
// incast orchestrator, and an adaptive controller that steers an epoch onto
// the proxy once its announced bytes or the receiver queue show it will
// overflow the receiver ToR.
//
// This package is the public API: experiment specifications, the three
// compared schemes, figure-regeneration sweeps, and re-exports of the
// pieces a downstream user composes (see the examples/ directory).
package incastproxy

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/stats"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// Re-exported quantity types. All simulated time is in picoseconds
// (units.Duration); sizes in bytes; rates in bits per second.
type (
	// Duration is a span of simulated time.
	Duration = units.Duration
	// ByteSize is a quantity of data.
	ByteSize = units.ByteSize
	// BitRate is a transmission rate.
	BitRate = units.BitRate
)

// Common quantities.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	KB          = units.KB
	MB          = units.MB
	GB          = units.GB
	Gbps        = units.Gbps
)

// Scheme selects how incast traffic is routed.
type Scheme = workload.Scheme

// The three schemes of §4.1.
const (
	// Baseline sends directly to the remote receiver.
	Baseline = workload.Baseline
	// ProxyNaive relays through two split connections at the proxy.
	ProxyNaive = workload.ProxyNaive
	// ProxyStreamlined routes one connection via the proxy, which NACKs
	// trimmed packets.
	ProxyStreamlined = workload.ProxyStreamlined
	// SchemeAdaptive starts direct and lets the online control plane
	// re-steer the epoch mid-flight (internal/workload's controller).
	SchemeAdaptive = workload.SchemeAdaptive
)

// Schemes lists the three static schemes of §4.1, for sweeps. SchemeAdaptive
// is compared against them in its own table (Sweep's Adaptive).
func Schemes() []Scheme { return workload.Schemes() }

// Experiment types, re-exported from the workload engine.
type (
	// IncastSpec describes one incast experiment (§4 methodology).
	IncastSpec = workload.Spec
	// IncastResult aggregates an experiment's runs.
	IncastResult = workload.Result
	// RunResult is a single simulated incast.
	RunResult = workload.RunResult
	// Scenario is an arbitrary multi-flow workload on the §4.1 fabric.
	Scenario = workload.Scenario
	// ScenarioResult reports per-flow completion.
	ScenarioResult = workload.ScenarioResult
	// FlowSpec is one transfer in a Scenario.
	FlowSpec = workload.FlowSpec
	// HostRef names a host by datacenter and index.
	HostRef = workload.HostRef
	// ProxyRef routes a flow via a proxy.
	ProxyRef = workload.ProxyRef
	// TopoConfig describes the two-DC fabric (§4.1 defaults).
	TopoConfig = topo.Config
	// FlowID identifies a flow.
	FlowID = netsim.FlowID
)

// DefaultTopo returns the §4.1 fabric: two 8x8x8 leaf-spine datacenters
// joined by 64 backbone routers, all links 100 Gb/s, 1 us intra-DC and
// 1 ms long-haul propagation.
func DefaultTopo() TopoConfig { return topo.DefaultConfig() }

// RunIncast simulates one incast experiment. Set IncastSpec.Parallel to fan
// the spec's repeated runs across worker goroutines; results are merged in
// run order, so the output is byte-identical to a serial run.
func RunIncast(spec IncastSpec) (*IncastResult, error) { return workload.Run(spec) }

// RunScenario simulates an arbitrary multi-flow workload.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return workload.RunScenario(sc) }

// Comparison is the outcome of running the same incast under every scheme.
type Comparison struct {
	Spec    IncastSpec
	Results map[Scheme]*IncastResult
}

// CompareSchemes runs the same incast under all three schemes.
func CompareSchemes(spec IncastSpec) (*Comparison, error) {
	c := &Comparison{Spec: spec, Results: make(map[Scheme]*IncastResult, 3)}
	for _, s := range Schemes() {
		sp := spec
		sp.Scheme = s
		res, err := workload.Run(sp)
		if err != nil {
			return nil, err
		}
		c.Results[s] = res
	}
	return c, nil
}

// ICT returns the average incast completion time under a scheme.
func (c *Comparison) ICT(s Scheme) Duration { return c.Results[s].ICT.Avg() }

// Reduction returns a proxy scheme's relative ICT reduction versus the
// baseline (the paper's headline metric).
func (c *Comparison) Reduction(s Scheme) float64 {
	return stats.Reduction(c.ICT(Baseline), c.ICT(s))
}

// Observability types: every run carries a Manifest (seed, config hash,
// final metric snapshot) and, when ObsConfig.Trace is set, a Tracer whose
// events export as Chrome trace-event JSON (viewable in Perfetto).
type (
	// ObsConfig controls a run's observability (IncastSpec.Obs).
	ObsConfig = workload.ObsConfig
	// Tracer is an append-only flow/queue event trace in virtual time.
	Tracer = obs.Tracer
	// MetricsSnapshot is a deterministic point-in-time metrics copy.
	MetricsSnapshot = obs.Snapshot
	// Manifest identifies a run and embeds its metric snapshot.
	Manifest = obs.Manifest
)
