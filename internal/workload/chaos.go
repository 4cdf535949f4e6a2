package workload

// Chaos scenarios: the paper's evaluation assumes a healthy proxy, but the
// proxy is a single point on the data path. RunChaos crashes the proxy host
// mid-incast (plus optional inter-DC blackholes) and exercises the recovery
// story end to end: a failover controller detects the crash after a
// configurable delay, aborts the stranded senders, and re-homes each flow's
// remaining bytes onto a standby proxy in the same datacenter or straight
// onto the direct path. Every fault and every failover action is an engine
// event derived from the spec's seed, so a chaos run is exactly as
// reproducible as a clean one.

import (
	"fmt"

	"incastproxy/internal/faults"
	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/runner"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// FailoverMode selects what the controller does with flows stranded on a
// crashed proxy.
type FailoverMode int

// The failover policies.
const (
	// FailoverNone leaves flows to RTO against the dead proxy; they
	// complete only if the proxy restarts.
	FailoverNone FailoverMode = iota
	// FailoverStandby re-homes flows through a standby proxy host in the
	// sending datacenter.
	FailoverStandby
	// FailoverDirect degrades flows to the direct path — the paper's
	// baseline: the shortest path, no longer the fastest choice but the
	// one that still exists.
	FailoverDirect
)

func (m FailoverMode) String() string {
	switch m {
	case FailoverNone:
		return "none"
	case FailoverStandby:
		return "standby"
	case FailoverDirect:
		return "direct"
	default:
		return fmt.Sprintf("FailoverMode(%d)", int(m))
	}
}

// ChaosSpec describes one proxied incast with injected proxy failure. The
// embedded incast always runs the streamlined scheme (the paper's headline
// design and the one whose proxy holds no byte state, so re-homing needs no
// state transfer).
type ChaosSpec struct {
	// Incast is the base experiment; Scheme is forced to ProxyStreamlined
	// and Runs to 1 (repeat by varying Seed).
	Incast Spec

	// CrashAt is when the primary proxy host dies.
	CrashAt units.Duration
	// RestartAfter revives it that long after the crash (0: stays dead).
	RestartAfter units.Duration
	// DetectionDelay is how long after the crash the failover controller
	// reacts (default 1 ms — a few health-probe intervals).
	DetectionDelay units.Duration
	// Mode picks the failover policy.
	Mode FailoverMode

	// BlackholeAt/BlackholeDur, when Dur > 0, additionally take every
	// inter-DC link down for the window — compound failure.
	BlackholeAt  units.Duration
	BlackholeDur units.Duration
}

// ChaosResult reports one chaos run.
type ChaosResult struct {
	RunResult
	// Timeline is the injector's executed fault edges.
	Timeline []faults.Event
	// FailedOver counts flows the controller re-homed; RehomedBytes is
	// the total remaining bytes it moved.
	FailedOver   int
	RehomedBytes units.ByteSize
}

func (spec ChaosSpec) withDefaults() ChaosSpec {
	spec.Incast.Scheme = ProxyStreamlined
	spec.Incast.Runs = 1
	spec.Incast = spec.Incast.withDefaults()
	if spec.DetectionDelay <= 0 {
		spec.DetectionDelay = units.Millisecond
	}
	return spec
}

// Validate reports specification errors.
func (spec ChaosSpec) Validate() error {
	spec = spec.withDefaults()
	if err := spec.Incast.Validate(); err != nil {
		return err
	}
	hostsPerDC := spec.Incast.Topo.Leaves * spec.Incast.Topo.ServersPerLeaf
	if spec.Mode == FailoverStandby && spec.Incast.Degree > hostsPerDC-2 {
		return fmt.Errorf("workload: degree %d leaves no host for a standby proxy (%d per DC)",
			spec.Incast.Degree, hostsPerDC)
	}
	if spec.CrashAt <= 0 {
		return fmt.Errorf("workload: CrashAt must be positive")
	}
	return nil
}

// RunChaosSeries repeats the chaos experiment runs times with per-run seeds
// derived from spec.Incast.Seed, fanned across parallel workers (0 or 1:
// serial; negative: one worker per CPU). Every trial gets its own engine,
// injector, and RNG; results come back in run order, byte-identical to a
// serial loop, with the lowest-numbered failing run's error surfaced first.
func RunChaosSeries(spec ChaosSpec, runs, parallel int) ([]*ChaosResult, error) {
	if runs <= 0 {
		runs = 1
	}
	if parallel == 0 {
		parallel = 1
	}
	base := spec.withDefaults()
	return runner.Map(parallel, runs, func(run int) (*ChaosResult, error) {
		sp := base
		sp.Incast.Seed = rng.DeriveSeed(base.Incast.Seed, int64(run))
		res, err := RunChaos(sp)
		if err != nil {
			return nil, fmt.Errorf("chaos run %d: %w", run, err)
		}
		return res, nil
	})
}

// RunChaos simulates one incast under proxy failure: the static streamlined
// strategy plus a fault injector and one failover event.
func RunChaos(spec ChaosSpec) (*ChaosResult, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := spec.Incast
	ep := newEpoch(s, s.Seed)
	hostsDC0 := ep.net.Hosts[0]
	primary, standby := ep.proxyHost, hostsDC0[len(hostsDC0)-2]
	ep.watchPorts(map[string]*netsim.Host{"recv-tor": ep.recv, "primary-tor": primary, "standby-tor": standby})

	// A flow completes once, on whichever of its original and failover
	// legs finishes first.
	flowDone := make([]bool, s.Degree)
	markDone := func(i int) func(units.Time) {
		return func(at units.Time) {
			if !flowDone[i] {
				flowDone[i] = true
				ep.flowDone(at)
			}
		}
	}
	// Original flows, streamlined through the primary proxy.
	ep.startIncast(markDone)

	// The faults.
	inj := ep.injector()
	inj.CrashHost(primary, units.Time(spec.CrashAt), spec.RestartAfter)
	if spec.BlackholeDur > 0 {
		inj.BlackholePorts("inter-dc", ep.net.InterDCPorts(),
			units.Time(spec.BlackholeAt), spec.BlackholeDur)
	}

	// The failover controller: abort each stranded sender and re-home the
	// bytes its receiver still lacks on a fresh leg.
	res := &ChaosResult{}
	if spec.Mode != FailoverNone {
		ep.eng.Schedule(units.Time(spec.CrashAt+spec.DetectionDelay), func(e *sim.Engine) {
			for i, share := range splitBytes(s.TotalBytes, s.Degree) {
				if flowDone[i] {
					continue
				}
				ep.senders[i].Abort()
				remaining := share - ep.receivers[i].Bytes()
				f := flow{
					id: legFlowID(i, 1), src: hostsDC0[i], dst: ep.recv, scheme: ProxyStreamlined,
					bytes: remaining, fanIn: s.Degree, label: "flow %d (failover)", done: markDone(i),
				}
				if spec.Mode == FailoverStandby {
					f.via = standby
				}
				s2, _ := ep.wire(f)
				res.FailedOver++
				res.RehomedBytes += remaining
				ep.tracer.Instant(e.Now(), "failover", spec.Mode.String(), int64(f.id),
					obs.Arg{Key: "remaining", Val: fmt.Sprintf("%d", remaining)})
				s2.Start(e)
			}
		})
	}

	res.RunResult = ep.finish(spec.fingerprintString())
	res.Timeline = inj.Timeline()
	if !res.Completed {
		return res, ep.incomplete(fmt.Sprintf("chaos incast (mode %v)", spec.Mode))
	}
	return res, nil
}
