package workload

// Per-run observability of the epoch harness: each run gets its own registry
// (multi-run specs would otherwise double-count) and, when requested, its own
// tracer. The resulting manifest — seed, config fingerprint, full metric
// snapshot — rides back on the RunResult so figures and result files are
// self-describing.

import (
	"fmt"
	"sort"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// ObsConfig controls a run's observability. The zero value (and a nil
// pointer) means: metrics registry on, tracing off.
type ObsConfig struct {
	// Disable turns the metrics registry off entirely. Used by benchmarks
	// measuring the uninstrumented baseline; everything downstream
	// (Manifest, Trace) is nil.
	Disable bool
	// Trace records flow lifecycle and queue events to a Tracer returned
	// on RunResult.Trace, exportable as Chrome trace JSON.
	Trace bool
}

// queueSampleEvery is the virtual-time period of the down-ToR occupancy
// samples on a trace's "queue <name>" counter tracks.
const queueSampleEvery = 50 * units.Microsecond

// instrumentRun creates the run's registry and tracer per Spec.Obs (nil when
// disabled: every recording call then no-ops) and instruments the engine,
// the fabric, and the growing sender/receiver slices.
func (ep *epoch) instrumentRun() {
	if oc := ep.spec.Obs; oc == nil || !oc.Disable {
		ep.reg = obs.NewRegistry()
		if oc != nil && oc.Trace {
			ep.tracer = obs.NewTracer()
		}
	}
	ep.eng.Instrument(ep.reg)
	ep.net.Instrument(ep.reg)
	if ep.tracer != nil { // a fresh fabric's ports have none: nothing to clear
		ep.net.SetTracer(ep.tracer)
	}
	ep.tel = transport.NewTelemetry(ep.reg, ep.tracer)
	transport.InstrumentSenders(ep.reg, &ep.senders)
	transport.InstrumentReceivers(ep.reg, &ep.receivers)
}

// watchPorts exports the queue counters of the named hosts' down-ToR ports,
// the run's candidate congestion points, and when tracing samples each one's
// occupancy periodically (counter tracks "queue <name>") until MaxSimTime.
func (ep *epoch) watchPorts(hosts map[string]*netsim.Host) {
	// Sort the names: map iteration order is random, and the samplers'
	// initial Count events must land in the trace deterministically.
	names := make([]string, 0, len(hosts))
	for name := range hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep.net.DownToRPort(hosts[name]).Instrument(ep.reg)
	}
	if ep.tracer == nil {
		return
	}
	until := units.Time(ep.spec.MaxSimTime)
	for _, name := range names {
		name, p := name, ep.net.DownToRPort(hosts[name])
		var sample func(*sim.Engine)
		sample = func(e *sim.Engine) {
			ep.tracer.Count(e.Now(), "queue", "queue "+name, 0,
				float64(p.QueuedBytes()))
			if next := e.Now().Add(queueSampleEvery); next <= until {
				e.Schedule(next, sample)
			}
		}
		sample(ep.eng)
	}
}

// fingerprint returns the spec as config hashing sees it. Func-valued and
// observability fields are reset (funcs print as nondeterministic pointers,
// and turning tracing on must not change the config identity), as is the
// seed: it rides separately on Manifest.Seed, so runs of one configuration
// share a hash across seeds. Parallel is reset too: how many workers
// executed the trials is an execution detail, and serial and parallel runs
// of one spec must produce identical config hashes. The two fields Spec
// accepts and ignores are reset so that setting them changes nothing.
func (s Spec) fingerprint() Spec {
	s.OnBuild = nil
	s.ProxyProcDelay = nil
	s.Obs = nil
	s.Seed = 0
	s.Parallel = 0
	s.Shards = 0
	s.ShardWorkers = 0
	return s
}

// fingerprintString renders the spec for config hashing.
func (s Spec) fingerprintString() string { return fmt.Sprintf("%+v", s.fingerprint()) }
