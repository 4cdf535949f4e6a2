package workload

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// HostRef names a host by datacenter and index.
type HostRef struct {
	DC, Host int
}

func (h HostRef) String() string { return fmt.Sprintf("dc%d/h%d", h.DC, h.Host) }

// ProxyRef routes a flow through a proxy host with the given scheme.
type ProxyRef struct {
	Scheme Scheme
	At     HostRef
}

// FlowSpec is one point-to-point transfer inside a Scenario.
type FlowSpec struct {
	// ID must be unique; IDs above 1<<20 are reserved for internal
	// relay legs.
	ID    netsim.FlowID
	Src   HostRef
	Dst   HostRef
	Bytes units.ByteSize
	// Start is the flow's start offset from scenario time zero.
	Start units.Duration
	// Via, when non-nil, relays the flow through a proxy.
	Via *ProxyRef
}

// Scenario is an arbitrary multi-flow workload on the two-DC fabric: the
// general form behind the MoE, storage, and quorum examples, and behind
// orchestrated multi-incast experiments.
type Scenario struct {
	Topo  topo.Config // zero value: §4.1 default
	Flows []FlowSpec
	Seed  int64

	MSS            units.ByteSize
	ProxyProcDelay rng.Distribution
	MaxSimTime     units.Duration

	// OnBuild, if set, runs after the fabric is built and before flows
	// are wired (trace/telemetry hook).
	OnBuild func(*topo.Network, *sim.Engine)
}

// ScenarioResult reports per-flow completion times.
type ScenarioResult struct {
	Done      map[netsim.FlowID]units.Duration
	Completed bool
	// Makespan is the completion time of the last flow.
	Makespan units.Duration
	Events   uint64
}

// spec returns the epoch spec the scenario runs on, defaults applied. A
// scenario reports completion times only, so its epoch carries no metrics
// registry; it completes when all len(Flows) flows have.
func (sc Scenario) spec() Spec {
	return Spec{
		Degree: len(sc.Flows), Topo: sc.Topo, Seed: sc.Seed, MSS: sc.MSS,
		ProxyProcDelay: sc.ProxyProcDelay, MaxSimTime: sc.MaxSimTime,
		OnBuild: sc.OnBuild, Obs: &ObsConfig{Disable: true},
	}.withDefaults()
}

// Validate reports specification errors.
func (sc Scenario) Validate() error {
	cfg := sc.spec().Topo
	hostsPerDC := cfg.Leaves * cfg.ServersPerLeaf
	okRef := func(h HostRef) bool {
		return (h.DC == 0 || h.DC == 1) && h.Host >= 0 && h.Host < hostsPerDC
	}
	seen := make(map[netsim.FlowID]bool, len(sc.Flows))
	if len(sc.Flows) == 0 {
		return fmt.Errorf("workload: scenario has no flows")
	}
	for i, f := range sc.Flows {
		switch {
		case f.ID == 0 || f.ID >= 1<<20:
			return fmt.Errorf("workload: flow %d: ID %d out of range [1, 1<<20)", i, f.ID)
		case seen[f.ID]:
			return fmt.Errorf("workload: duplicate flow ID %d", f.ID)
		case !okRef(f.Src) || !okRef(f.Dst):
			return fmt.Errorf("workload: flow %d: bad host ref %v->%v", i, f.Src, f.Dst)
		case f.Src == f.Dst:
			return fmt.Errorf("workload: flow %d: src == dst", i)
		case f.Bytes <= 0:
			return fmt.Errorf("workload: flow %d: no bytes", i)
		case f.Start < 0:
			return fmt.Errorf("workload: flow %d: negative start", i)
		case f.Via != nil && !okRef(f.Via.At):
			return fmt.Errorf("workload: flow %d: bad proxy ref %v", i, f.Via.At)
		case f.Via != nil && f.Via.Scheme == Baseline:
			return fmt.Errorf("workload: flow %d: Via with Baseline scheme is contradictory", i)
		}
		seen[f.ID] = true
	}
	return nil
}

// RunScenario simulates the scenario once: the epoch harness with a loop over
// the FlowSpecs as its strategy.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec := sc.spec()
	// Fan-in counts size each flow's initial RTO: the first-window bursts of
	// all flows converging on one destination (or proxy) share its last link.
	fanIn := make(map[HostRef]int)
	for _, f := range sc.Flows {
		fanIn[f.Dst]++
		if f.Via != nil {
			fanIn[f.Via.At]++
			// Streamlined relaying needs trimming in each proxy's datacenter.
			if f.Via.Scheme == ProxyStreamlined {
				spec.Topo.TrimDC[f.Via.At.DC] = true
			}
		}
	}
	ep, err := newEpoch(spec, spec.Seed)
	if err != nil {
		return nil, err
	}
	host := func(h HostRef) *netsim.Host { return ep.net.Hosts[h.DC][h.Host] }

	res := &ScenarioResult{Done: make(map[netsim.FlowID]units.Duration, len(sc.Flows))}
	for _, f := range sc.Flows {
		id := f.ID
		w := flow{
			id: id, src: host(f.Src), dst: host(f.Dst), bytes: f.Bytes,
			fanIn: fanIn[f.Dst], label: "flow %d",
			done: func(at units.Time) {
				res.Done[id] = units.Duration(at)
				ep.flowDone(at)
			},
		}
		if f.Via != nil {
			// Any scheme but streamlined relays on two connections.
			w.via, w.scheme = host(f.Via.At), ProxyNaive
			if f.Via.Scheme == ProxyStreamlined {
				w.scheme = ProxyStreamlined
			}
			if n := fanIn[f.Via.At]; n > w.fanIn {
				w.fanIn = n
			}
		}
		s, _ := ep.wire(w)
		ep.eng.Schedule(units.Time(f.Start), s.Start)
	}

	rr := ep.finish("")
	res.Completed, res.Makespan, res.Events = rr.Completed, rr.ICT, rr.Events
	if !res.Completed {
		return res, ep.incomplete("scenario")
	}
	return res, nil
}

// RunScenarios simulates independent scenarios, fanned across parallel
// workers (0 or 1: serial; negative: one worker per CPU). Each scenario
// builds its own engine and RNG; results come back in the order of scs,
// byte-identical to running them serially. The error surfaced on failure is
// the lowest-indexed scenario's.
func RunScenarios(scs []Scenario, parallel int) ([]*ScenarioResult, error) {
	if parallel == 0 {
		parallel = 1
	}
	return runner.Map(parallel, len(scs), func(i int) (*ScenarioResult, error) {
		res, err := RunScenario(scs[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		return res, nil
	})
}
