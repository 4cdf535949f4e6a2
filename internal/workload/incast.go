// Package workload generates and runs the paper's workloads: the core
// many-to-one incast (§4), plus the §2 motivating patterns (MoE all-to-all
// phases, erasure-coded storage reconstruction) used by the examples.
//
// An incast run places every sender in datacenter 0 and the receiver in
// datacenter 1, optionally routes the flows through a proxy in datacenter 0
// (naive or streamlined, §4.1), and reports the incast completion time:
// the time until the receiver holds every byte.
package workload

import (
	"fmt"

	"incastproxy/internal/control"
	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/proxy"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/sim"
	"incastproxy/internal/stats"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// Scheme selects how incast traffic is routed (§4.1 "Schemes").
type Scheme int

// The three compared schemes.
const (
	// Baseline: senders transmit directly to the remote receiver.
	Baseline Scheme = iota
	// ProxyNaive: two connections per flow relayed at a proxy in the
	// sending datacenter.
	ProxyNaive
	// ProxyStreamlined: one connection routed via the proxy; switches in
	// the sending DC trim, and the proxy NACKs trimmed headers.
	ProxyStreamlined
	// ProxyInferring is the future-work #1 design: no switch trimming;
	// the proxy infers losses from sequence gaps under reordering with
	// bounded memory, and NACKs inferred losses. Not part of the
	// paper's three compared schemes (Schemes()), but evaluable against
	// them.
	ProxyInferring
	// SchemeAdaptive starts every flow on the direct path under a small
	// paced window and lets an online controller (internal/control)
	// re-steer the epoch mid-flight: announced-overflow or queue onset
	// upgrades flows onto the streamlined proxy (un-sent suffixes
	// re-homed, a buffer-safe subset kept direct), and a degraded proxy
	// (probe loss, queueing excess) downgrades them back. See adaptive.go.
	SchemeAdaptive
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case ProxyNaive:
		return "proxy-naive"
	case ProxyStreamlined:
		return "proxy-streamlined"
	case ProxyInferring:
		return "proxy-inferring"
	case SchemeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists all three for sweeps.
func Schemes() []Scheme { return []Scheme{Baseline, ProxyNaive, ProxyStreamlined} }

// Spec describes one incast experiment setup.
type Spec struct {
	Scheme Scheme
	// Degree is the number of senders; TotalBytes is split equally
	// among them (§4.2).
	Degree     int
	TotalBytes units.ByteSize

	// Runs repeats the experiment with different seeds; the paper uses
	// 5 and reports avg/min/max.
	Runs int
	Seed int64

	// Parallel fans the Runs across worker goroutines: 0 or 1 runs
	// serially (the zero-value default — OnBuild hooks need not be
	// goroutine-safe), N > 1 uses min(N, Runs) workers, and negative
	// values use one worker per CPU. Each trial builds its own engine,
	// registry, and RNG, and results merge in run order, so the output
	// is byte-identical to a serial run. With Parallel > 1 an OnBuild
	// hook runs concurrently and must be goroutine-safe.
	Parallel int

	// Shards and ShardWorkers are accepted and ignored: every run uses one
	// engine. They remain because the repository benchmark still sets them,
	// and because config hashing prints field names (fingerprint), so
	// deleting them would change every manifest's ConfigHash. They go with
	// that benchmark metric, in a change that re-records the golden runs.
	Shards, ShardWorkers int

	// Topo overrides the fabric (zero value: the §4.1 default). The
	// runner forces TrimDC[0] on for the streamlined scheme.
	Topo topo.Config

	// MSS is the data packet wire size (default 1500 B).
	MSS units.ByteSize

	// ProxyProcDelay models streamlined per-packet proxy processing
	// (default: constant 420 ns, the §5 measured eBPF median).
	ProxyProcDelay rng.Distribution

	// MaxSimTime bounds each run (default 60 s of simulated time).
	MaxSimTime units.Duration

	// Ablation knobs (see DESIGN.md's experiment index).

	// NoEarlyFeedback makes the streamlined proxy relay trimmed headers
	// to the remote receiver instead of NACKing locally (§3 Insight #2
	// ablation: the bottleneck shift alone is not enough).
	NoEarlyFeedback bool
	// TrimReceiverDC enables trimming in the receiving datacenter for
	// any scheme, so the baseline gets NACKs — over the long loop.
	TrimReceiverDC bool
	// IWScale scales every sender's initial window relative to the
	// default 1 BDP (0 means 1.0).
	IWScale float64
	// Gemini enables the Gemini-like congestion control variant on
	// every sender (related-work comparison: milder window reduction
	// for longer-RTT flows).
	Gemini bool

	// OnBuild, if set, runs after the fabric is built and before flows
	// start in every run — the hook for attaching trace recorders or
	// custom telemetry.
	OnBuild func(*topo.Network, *sim.Engine)

	// Obs configures per-run observability (nil: metrics on, tracing
	// off). See ObsConfig.
	Obs *ObsConfig

	// InferTracker bounds the ProxyInferring scheme's loss tracker
	// (zero value: 4096-packet windows, 100 us reorder delay, 1024
	// flows). InferFlushEvery drives its timer-based hole expiry.
	InferTracker    proxy.LossTrackerConfig
	InferFlushEvery units.Duration

	// Control tunes the SchemeAdaptive controller thresholds (zero
	// SamplePeriod: control.DefaultConfig, with OverflowBytes defaulted
	// to the receiver ToR queue capacity). Ignored by other schemes.
	Control control.Config

	// Stress knobs shared by every scheme, so adaptive-vs-static
	// comparisons stay apples to apples.

	// IncastDelay starts the incast flows that much into the run (the
	// cross traffic and the path probers get a head start).
	IncastDelay units.Duration
	// CrossTraffic, when Flows > 0, runs competing intra-DC flows into
	// the proxy host — sustained pressure on the proxy-path bottleneck.
	CrossTraffic CrossTrafficSpec
	// ProxyCrashAt, when > 0, crashes the proxy host at that time;
	// ProxyRestartAfter revives it that long after (0: stays dead).
	ProxyCrashAt      units.Duration
	ProxyRestartAfter units.Duration
}

// CrossTrafficSpec describes background flows aimed at the proxy host from
// otherwise-idle hosts in the sending datacenter. They congest the proxy's
// down-ToR queue — the proxy path's bottleneck — without touching the
// direct path, which is exactly the asymmetry an adaptive policy must see.
type CrossTrafficSpec struct {
	// Flows is how many background flows to run (0 disables).
	Flows int
	// Bytes is each flow's size.
	Bytes units.ByteSize
	// StartAt is the first flow's start time; Stagger separates
	// consecutive starts.
	StartAt units.Duration
	Stagger units.Duration
}

func (s Spec) withDefaults() Spec {
	if s.Topo.Spines == 0 {
		s.Topo = topo.DefaultConfig()
	}
	if s.Runs <= 0 {
		s.Runs = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MSS <= 0 {
		s.MSS = transport.DefaultMSS
	}
	if s.ProxyProcDelay == nil {
		s.ProxyProcDelay = rng.Constant{D: 420 * units.Nanosecond}
	}
	if s.MaxSimTime <= 0 {
		s.MaxSimTime = 60 * units.Second
	}
	return s
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	s = s.withDefaults()
	hostsPerDC := s.Topo.Leaves * s.Topo.ServersPerLeaf
	switch {
	case s.Degree < 1:
		return fmt.Errorf("workload: degree must be >= 1, got %d", s.Degree)
	case s.Degree > hostsPerDC-1:
		return fmt.Errorf("workload: degree %d exceeds %d available senders (one host is the proxy)",
			s.Degree, hostsPerDC-1)
	case s.TotalBytes <= 0:
		return fmt.Errorf("workload: TotalBytes must be positive")
	case s.CrossTraffic.Flows > 0 && s.CrossTraffic.Bytes <= 0:
		return fmt.Errorf("workload: cross-traffic flows need Bytes > 0")
	case s.Degree+s.CrossTraffic.Flows > hostsPerDC-1:
		return fmt.Errorf("workload: degree %d + %d cross-traffic flows exceed %d available hosts",
			s.Degree, s.CrossTraffic.Flows, hostsPerDC-1)
	case s.Topo.Backbones == 0:
		return fmt.Errorf("workload: topology has no inter-DC backbone; every incast crosses datacenters")
	}
	return nil
}

// RunResult captures one simulated incast.
type RunResult struct {
	ICT       units.Duration
	Completed bool

	// Sender-side aggregates across all flows.
	Timeouts    uint64
	Retransmits uint64
	Nacks       uint64
	MarkedAcks  uint64
	PktsSent    uint64

	// Bottleneck telemetry: high-watermark occupancy of the down-ToR
	// queues at the receiver and at the proxy (Figure 1's two candidate
	// congestion points).
	ReceiverToRMaxQueue units.ByteSize
	ProxyToRMaxQueue    units.ByteSize
	ReceiverToRDrops    uint64
	ProxyToRTrims       uint64
	ProxyToRDrops       uint64
	// ProxyFalseNacks counts inferring-proxy NACKs contradicted by late
	// arrivals (reordering mistaken for loss; ProxyInferring only).
	ProxyFalseNacks uint64

	// FlowFCT summarizes the completion times of the incast's finished
	// flows. It is computed through a bounded sample (stats.NewBounded,
	// reservoir seeded from the run seed) so 10k-sender epochs summarize
	// in constant memory; at degrees up to the reservoir capacity the
	// percentiles are exact order statistics.
	FlowFCT stats.DurationSummary

	// Adaptive-scheme decision record (SchemeAdaptive only; zero
	// otherwise). Steers lists the controller's executed re-steers,
	// Onsets its detector onset count, FinalRoute where the epoch ended
	// up, RehomedFlows/RehomedBytes what the steers moved, and
	// KeptDirect how many flows a partial rebalance left on the direct
	// path.
	Steers       []control.Steer
	Onsets       uint64
	FinalRoute   string
	RehomedFlows int
	RehomedBytes units.ByteSize
	KeptDirect   int

	Events uint64

	// Manifest carries the run's identity (seed, config hash) and its
	// final metric snapshot; nil when Spec.Obs.Disable.
	Manifest *obs.Manifest
	// Trace holds the run's flow/queue event trace when Spec.Obs.Trace;
	// nil otherwise. Export with WriteChromeTrace.
	Trace *obs.Tracer
}

// Result aggregates an experiment's runs.
type Result struct {
	Spec Spec
	ICT  stats.RunStats
	Runs []RunResult
}

// Run executes the experiment: Spec.Runs independent simulations with
// seeds derived per run via rng.DeriveSeed, fanned across Spec.Parallel
// workers. It returns an error if the spec is invalid or any run fails to
// complete within MaxSimTime; with several failing runs the error reported
// is the lowest-numbered one, exactly as a serial loop would surface it.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	par := spec.Parallel
	if par == 0 {
		par = 1
	}
	runs, err := runner.Map(par, spec.Runs, func(run int) (RunResult, error) {
		rr, err := runOnce(spec, rng.DeriveSeed(spec.Seed, int64(run)))
		if err != nil {
			return RunResult{}, fmt.Errorf("run %d: %w", run, err)
		}
		return rr, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Runs: runs}
	for _, rr := range runs {
		res.ICT.Add(rr.ICT)
	}
	return res, nil
}

// runOnce simulates one incast on a fresh epoch.
func runOnce(spec Spec, seed int64) (RunResult, error) {
	ep := newEpoch(spec, seed)
	ep.watchPorts(map[string]*netsim.Host{"recv-tor": ep.recv, "proxy-tor": ep.proxyHost})
	report := func(*RunResult) {} // the strategy's own result fields
	if spec.Scheme == SchemeAdaptive {
		var err error
		if report, err = ep.startAdaptive(); err != nil {
			return RunResult{}, err
		}
	} else {
		ep.startIncast(nil)
	}
	ep.startCrossTraffic()
	if spec.ProxyCrashAt > 0 {
		ep.crashProxy()
	}

	rr := ep.finish(spec.fingerprintString())
	report(&rr)
	if !rr.Completed {
		return rr, ep.incomplete("incast")
	}
	return rr, nil
}

// startIncast is the static strategy: Degree flows from DC0's first hosts to
// the receiver, routed per Spec.Scheme and started at IncastDelay. Flow i
// becomes ep.senders[i] and ep.receivers[i]; done, when non-nil, supplies its
// completion callback in place of the shared flowDone.
func (ep *epoch) startIncast(done func(i int) func(units.Time)) {
	at := ep.incastFlows()
	ep.reserve(ep.spec.Degree, at)
	for i := range ep.spec.Degree {
		f := at(i)
		if done != nil {
			f.done = done(i)
		}
		s, _ := ep.wire(f)
		ep.startAt(s, ep.spec.IncastDelay)
	}
}

// incastFlows returns the static strategy's flows by index: flow i carries
// its share of TotalBytes from DC0's i-th host to the receiver, routed per
// Spec.Scheme, and completes through flowDone.
func (ep *epoch) incastFlows() func(i int) flow {
	spec := ep.spec
	shares := splitBytes(spec.TotalBytes, spec.Degree)
	f := flow{dst: ep.recv, scheme: spec.Scheme, fanIn: spec.Degree, label: "flow %d", done: ep.flowDone}
	if spec.Scheme != Baseline {
		f.via = ep.proxyHost
	}
	return func(i int) flow {
		f.id, f.src, f.bytes = netsim.FlowID(i+1), ep.net.Hosts[0][i], shares[i]
		return f
	}
}

// splitBytes divides total equally among n flows, spreading the remainder
// over the first flows (§4.2: "total traffic is split equally").
func splitBytes(total units.ByteSize, n int) []units.ByteSize {
	shares := make([]units.ByteSize, n)
	base := total / units.ByteSize(n)
	rem := total % units.ByteSize(n)
	for i := range shares {
		shares[i] = base
		if units.ByteSize(i) < rem {
			shares[i]++
		}
	}
	return shares
}
