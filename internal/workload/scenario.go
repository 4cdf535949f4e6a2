package workload

import (
	"fmt"

	"incastproxy/internal/netsim"
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

// Scenario is an arbitrary multi-flow workload on the §4.1 fabric, run with an
// incast Spec's defaults: the general form behind the MoE and storage
// examples, and behind orchestrated multi-incast experiments.
type Scenario struct {
	Flows []FlowSpec
	Seed  int64
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
	return Spec{Degree: len(sc.Flows), Seed: sc.Seed, Obs: &ObsConfig{Disable: true}}.withDefaults()
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
		case f.ID == 0 || f.ID >= naiveDownFlow:
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
		case f.Via != nil && f.Via.Scheme != ProxyNaive && f.Via.Scheme != ProxyStreamlined:
			return fmt.Errorf("workload: flow %d: a scenario relays through the naive or streamlined proxy, not %v", i, f.Via.Scheme)
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
	ep := newEpoch(spec, spec.Seed)
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
			w.via, w.scheme = host(f.Via.At), f.Via.Scheme
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
