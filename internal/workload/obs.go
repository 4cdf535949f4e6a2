package workload

// Per-run observability of the epoch harness: each run gets its own registry
// (multi-run specs would otherwise double-count) and, when requested, its own
// tracer. The resulting manifest — seed, config fingerprint, full metric
// snapshot — rides back on the RunResult so figures and result files are
// self-describing.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"

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
// disabled: every recording call then no-ops) and instruments the fabric,
// the engine, and the growing sender/receiver slices. The fabric registers
// first: its collector reads every port's queue, which catches the port up
// and can schedule events, and the engine's collector must count those.
func (ep *epoch) instrumentRun() {
	if oc := ep.spec.Obs; oc == nil || !oc.Disable {
		ep.reg = obs.NewRegistry()
		if oc != nil && oc.Trace {
			ep.tracer = obs.NewTracer()
		}
	}
	ep.net.Instrument(ep.reg)
	ep.eng.Instrument(ep.reg)
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
		track, p := "queue "+name, ep.net.DownToRPort(hosts[name])
		var sample func(*sim.Engine)
		sample = func(e *sim.Engine) {
			ep.tracer.Count(e.Now(), "queue", track, 0, float64(p.QueuedBytes()))
			if next := e.Now().Add(queueSampleEvery); next <= until {
				e.Schedule(next, sample)
			}
		}
		sample(ep.eng)
	}
}

// fingerprintSkip names the Spec paths config hashing leaves out: the seeds
// (Seed rides on Manifest.Seed; newEpoch overwrites Topo.Seed), execution
// settings that are not configuration, and the two fields Spec ignores.
var fingerprintSkip = map[string]bool{
	"Seed": true, "Topo.Seed": true, "OnBuild": true, "Obs": true,
	"Parallel": true, "Shards": true, "ShardWorkers": true,
}

// specLeaf is one scalar of Spec that config hashing renders: its dotted
// path, its field index, and the array element it names (-1: none).
type specLeaf struct {
	path  string
	index []int
	elem  int
}

// specLeaves are Spec's hashed scalars in declaration order, listed once.
var specLeaves = leavesOf(reflect.TypeFor[Spec](), "", nil)

// leavesOf lists t's hashed scalars under prefix and index. A field that is
// not skipped and has no exact rendering (not a bool, integer or float, nor
// an array or struct of them) panics: a new field cannot fall back to %v.
func leavesOf(t reflect.Type, prefix string, index []int) (leaves []specLeaf) {
	for i := range t.NumField() {
		f := t.Field(i)
		path, idx, k := prefix+f.Name, append(index[:len(index):len(index)], i), f.Type.Kind()
		if k == reflect.Array {
			k = f.Type.Elem().Kind()
		}
		switch {
		case fingerprintSkip[path]:
		case f.Type.Kind() == reflect.Struct:
			leaves = append(leaves, leavesOf(f.Type, path+".", idx)...)
		case k < reflect.Bool || k > reflect.Float64:
			panic(fmt.Sprintf("workload: config hashing cannot render Spec.%s (%v) exactly", path, f.Type))
		case f.Type.Kind() == reflect.Array:
			for e := range f.Type.Len() {
				leaves = append(leaves, specLeaf{fmt.Sprintf("%s[%d]", path, e), idx, e})
			}
		default:
			leaves = append(leaves, specLeaf{path, idx, -1})
		}
	}
	return leaves
}

// fingerprint renders the spec for config hashing: one "path=value" line per
// hashed scalar that is not zero, in declaration order, with exact values (a
// size, duration or rate as its raw integer). Two specs share a fingerprint
// only if they configure the same run, and a field no spec sets adds none.
func (s Spec) fingerprint() string {
	b := make([]byte, 0, 1024)
	v := reflect.ValueOf(&s).Elem()
	for _, l := range specLeaves {
		f := v.FieldByIndex(l.index)
		if l.elem >= 0 {
			f = f.Index(l.elem)
		}
		if f.IsZero() {
			continue
		}
		b = append(append(b, l.path...), '=')
		switch {
		case f.CanInt():
			b = strconv.AppendInt(b, f.Int(), 10)
		case f.CanUint():
			b = strconv.AppendUint(b, f.Uint(), 10)
		case f.CanFloat():
			b = strconv.AppendFloat(b, f.Float(), 'g', -1, 64)
		default:
			b = strconv.AppendBool(b, f.Bool())
		}
		b = append(b, '\n')
	}
	return string(b)
}

// ConfigHash is the config hash a run of s records in its manifest
// (obs.Manifest.ConfigHash), computed without running it: sweeps key and seed
// their cells by it.
func (s Spec) ConfigHash() uint64 { return obs.Fingerprint(s.withDefaults().fingerprint()) }
