package workload

// The epoch harness: the one copy of "build fabric, wire observability, wire
// flows, run, collect" under every entry point of this package. The schemes
// of §4.1 differ in the route a flow takes, not in the fabric, the transport,
// or the completion rule, so a run is an epoch plus a strategy that decides
// which flows to wire and when (startIncast, startAdaptive, RunScenario's
// loop).

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/proxy"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/stats"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// Flow-ID families: data flows count up from 1, naive down-legs sit at 1<<20,
// re-steered legs at odd multiples of 1<<21 (legFlowID), probes at
// control.ProbeFlowBase = 1<<22, cross traffic at 1<<23.
const (
	naiveDownFlow netsim.FlowID = 1 << 20
	crossFlowBase netsim.FlowID = 1 << 23
)

// legFlowID returns the flow ID of leg ord of incast flow i. Later legs get
// offset IDs so the old bindings (and any packets still in flight on them)
// stay inert.
func legFlowID(i, ord int) netsim.FlowID {
	f := netsim.FlowID(i + 1)
	if ord > 0 {
		f += netsim.FlowID(2*ord-1) << 21
	}
	return f
}

// proxyProcDelay is a proxy's per-packet processing time, §5's measured eBPF
// median; an interface value, so that passing it to a proxy boxes nothing.
var proxyProcDelay rng.Distribution = rng.Constant{D: 420 * units.Nanosecond}

// fctReservoirCap bounds the per-run FCT sample: above this many flows the
// percentile summary becomes a deterministic uniform-reservoir estimate.
const fctReservoirCap = 4096

// epoch is one simulated run in progress.
type epoch struct {
	spec Spec
	seed int64

	// eng runs the whole fabric: flows, the proxy crash and the strategy's
	// own events all schedule here.
	eng *sim.Engine
	net *topo.Network
	src *rng.Source

	// Per-run observability (obs.go); nil when disabled.
	reg    *obs.Registry
	tracer *obs.Tracer
	tel    *transport.Telemetry

	recv, proxyHost *netsim.Host // the incast's roles: DC1's first host, DC0's last

	// Every workload sender and receiver ever wired, re-steered legs
	// included: the obs collectors and finish sum over these.
	senders   []*transport.Sender
	receivers []*transport.Receiver
	infer     *proxy.InferringGroup

	// The arrays reserve makes for the flows a strategy wires next, and wire
	// takes their endpoints from, so that their set-up allocates per batch
	// and not per flow: senders and receivers with their tables, and the
	// streamlined proxy endpoints not yet handed out.
	flows   transport.Slab
	proxies []proxy.Streamlined

	// Completion state is receiver-side: flowDone updates it from the
	// receivers' events, and finish reads it back.
	done     int
	lastDone units.Time
	fcts     *stats.Sample
}

// newEpoch builds a fresh fabric for spec (defaulted, validated) and wires
// its observability. The run completes after spec.Degree flowDone calls.
func newEpoch(spec Spec, seed int64) *epoch {
	cfg := spec.Topo
	cfg.Seed = seed
	// The proxy path must trim from the first proxied byte; that does not
	// hurt an adaptive epoch's direct phase, which congests the remote ToR.
	if spec.Scheme == ProxyStreamlined || spec.Scheme == SchemeAdaptive {
		cfg.TrimDC[0] = true
	}
	if spec.TrimReceiverDC {
		cfg.TrimDC[1] = true
	}
	// An epoch records exactly Degree completions, so a reservoir of that
	// many never evicts and is allocated once.
	ep := &epoch{spec: spec, seed: seed, fcts: stats.NewBounded(min(fctReservoirCap, spec.Degree), seed)}
	ep.eng = sim.New()
	ep.net = topo.Build(ep.eng, cfg)
	if spec.OnBuild != nil {
		spec.OnBuild(ep.net, ep.eng)
	}
	ep.recv = ep.net.Hosts[1][0]
	ep.proxyHost = ep.net.Hosts[0][len(ep.net.Hosts[0])-1]
	ep.src = rng.New(seed)
	ep.senders = make([]*transport.Sender, 0, spec.Degree)
	ep.receivers = make([]*transport.Receiver, 0, spec.Degree)
	ep.instrumentRun()
	return ep
}

// flow describes one transfer for wire.
type flow struct {
	id       netsim.FlowID
	src, dst *netsim.Host
	// via, when non-nil, relays the flow through that host the way scheme
	// says: two joined connections under ProxyNaive, one otherwise.
	via    *netsim.Host
	scheme Scheme
	bytes  units.ByteSize
	fanIn  int            // flows converging on the hottest hop: sizes the initial RTO
	iwCap  units.ByteSize // when positive, caps the initial window
	label  string         // telemetry label format, applied to id
	// done is the receiver's completion callback. A flow without one is
	// environment, not workload: it stays out of the sender aggregates.
	done func(units.Time)
}

// reserve sizes the flow slab's next arrays, and the streamlined proxy
// endpoints', for the n flows at(0), …, at(n-1) that the caller wires next:
// exactly what wire takes for them. It sizes the binding table of each host
// they end or are relayed at for the flows bound there, if that table is not
// made yet. A flow wired past a reservation (an adaptive leg, a scenario's
// flow) gets arrays and an endpoint of its own, as NewSender and
// NewStreamlined make them. It returns the data packets the flows' senders
// put on the wire when they start: the sum of their first windows.
func (ep *epoch) reserve(n int, at func(i int) flow) (firstWindows int) {
	type hostBinds struct {
		h *netsim.Host
		n int
	}
	var buf [2]hostBinds // a batch ends at one host and is relayed at one more
	binds := buf[:0]
	bind := func(h *netsim.Host, k int) {
		for i := range binds {
			if binds[i].h == h {
				binds[i].n += k
				return
			}
		}
		binds = append(binds, hostBinds{h, k})
	}
	proxies := 0
	for i := range n {
		f := at(i)
		cfg := transport.ConfigFor(ep.window(f))
		ep.flows.Expect(f.bytes, cfg, transport.DefaultMSS)
		firstWindows += transport.FirstWindowPkts(f.bytes, cfg)
		bind(f.dst, 1)
		if f.via != nil && f.scheme == ProxyNaive {
			bind(f.via, 2) // the up-leg's receiver and the down-leg's sender
		} else if f.via != nil {
			bind(f.via, 1)
		}
		if f.via != nil && f.scheme != ProxyNaive && f.scheme != ProxyInferring {
			proxies++
		}
	}
	for _, b := range binds {
		b.h.Expect(b.n)
	}
	ep.flows.Reserve()
	ep.proxies = make([]proxy.Streamlined, proxies)
	return firstWindows
}

// path returns src -> (via ->) dst as transport.ConfigFor reads it: the
// unloaded RTT, the src-dst bottleneck rate whose BDP is the initial window
// (§4.1), and Spec.IWScale.
func (ep *epoch) path(src, via, dst *netsim.Host) transport.Path {
	var rtt units.Duration
	if via == nil {
		rtt = ep.net.PathRTT(src, dst, transport.DefaultMSS, netsim.ControlSize)
	} else {
		rtt = ep.net.PathRTT(src, via, transport.DefaultMSS, netsim.ControlSize) +
			ep.net.PathRTT(via, dst, transport.DefaultMSS, netsim.ControlSize)
	}
	return transport.Path{RTT: rtt, Rate: ep.net.BottleneckRate(src, dst), IWScale: ep.spec.IWScale}
}

// window returns the path of f's sender: to the receiver, through the proxy
// if relayed, or under ProxyNaive to the proxy, where its connection ends;
// with f's fan-in and window cap.
func (ep *epoch) window(f flow) transport.Path {
	var p transport.Path
	switch {
	case f.via == nil:
		p = ep.path(f.src, nil, f.dst)
	case f.scheme == ProxyNaive:
		p = ep.path(f.src, nil, f.via)
	default:
		p = ep.path(f.src, f.via, f.dst)
	}
	p.FanIn, p.IWCap = f.fanIn, f.iwCap
	return p
}

// wire creates and binds one flow's endpoints (receiver, proxy endpoint if
// relayed, sender) and returns the un-started sender and the receiver: the
// only place that knows how a scheme turns into connections.
func (ep *epoch) wire(f flow) (*transport.Sender, *transport.Receiver) {
	// As the direct path has them:
	hop, final, rxFlow, ackTo := f.dst.ID(), netsim.NodeID(0), f.id, f.src.ID()
	var relay *proxy.Naive
	switch {
	case f.via == nil:
	case f.scheme == ProxyNaive:
		down := ep.path(f.via, nil, f.dst)
		down.FanIn = f.fanIn
		downCfg := transport.ConfigFor(down)
		downCfg.GeminiMode = ep.spec.Gemini
		hop, rxFlow, ackTo = f.via.ID(), f.id+naiveDownFlow, f.via.ID()
		relay = proxy.NewNaive(f.via, f.id, rxFlow, f.src.ID(), f.dst.ID(), f.bytes, downCfg)
	default:
		hop, final, ackTo = f.via.ID(), f.dst.ID(), f.via.ID()
		if f.scheme == ProxyInferring {
			ep.inferring(f.via).AddFlow(f.id, f.src.ID(), f.dst.ID())
		} else {
			src := ep.src.Child(int64(f.id))
			var p *proxy.Streamlined
			if len(ep.proxies) > 0 {
				p, ep.proxies = &ep.proxies[0], ep.proxies[1:]
			} else {
				p = new(proxy.Streamlined)
			}
			p.Init(f.via, f.id, f.src.ID(), f.dst.ID(), proxyProcDelay, &src)
			p.NoEarlyNack = ep.spec.NoEarlyFeedback
			f.via.Bind(f.id, p)
		}
	}
	r := ep.flows.NewReceiver(f.dst, rxFlow, ackTo, f.bytes, transport.DefaultMSS, f.done)
	f.dst.Bind(rxFlow, r)
	cfg := transport.ConfigFor(ep.window(f))
	cfg.GeminiMode = ep.spec.Gemini
	s := ep.flows.NewSender(f.src, f.id, hop, final, f.bytes, cfg, nil)
	label := "" // read by trace calls only
	if ep.tracer != nil {
		label = fmt.Sprintf(f.label, f.id)
	}
	s.Attach(ep.tel, label)
	f.src.Bind(f.id, s)
	if f.done != nil {
		ep.senders = append(ep.senders, s)
		ep.receivers = append(ep.receivers, r)
	}
	if relay != nil {
		relay.Start(ep.eng) // the down-leg idles until bytes are released
	}
	return s, r
}

// inferring returns the run's loss-inferring group, created at host on first
// use: one group serves every flow relayed there.
func (ep *epoch) inferring(host *netsim.Host) *proxy.InferringGroup {
	if ep.infer == nil {
		tc := proxy.LossTrackerConfig{WindowPkts: 4096, ReorderDelay: 100 * units.Microsecond}
		ep.infer = proxy.NewInferringGroup(host, tc, 0, proxyProcDelay, ep.src.Split(999))
		ep.infer.Start(ep.eng, units.Time(ep.spec.MaxSimTime))
	}
	return ep.infer
}

// startAt starts s at the given offset into the run (immediately when zero).
func (ep *epoch) startAt(s *transport.Sender, at units.Duration) {
	if at > 0 {
		ep.eng.Schedule(units.Time(at), s.Start)
	} else {
		s.Start(ep.eng)
	}
}

// flowDone records one workload flow's completion at the receiver and stops
// the run on the last (stray timers would only re-fire). The FCT, completion
// minus the IncastDelay launch, is measured here because the senders never
// see their final ACKs. Receivers finish in deterministic event order, so the
// bounded reservoir sees the same sequence on every run of a seed.
func (ep *epoch) flowDone(at units.Time) {
	ep.done++
	if at > ep.lastDone {
		ep.lastDone = at
	}
	ep.fcts.AddDuration(at.Sub(units.Time(ep.spec.IncastDelay)))
	if ep.done == ep.spec.Degree {
		ep.eng.Stop()
	}
}

// startCrossTraffic launches Spec.CrossTraffic: background flows from idle
// DC0 hosts into the proxy host.
func (ep *epoch) startCrossTraffic() {
	ct := ep.spec.CrossTraffic
	idle := ep.net.Hosts[0][ep.spec.Degree:]
	at := func(j int) flow {
		return flow{
			id:  crossFlowBase + netsim.FlowID(j+1),
			src: idle[j], dst: ep.proxyHost,
			bytes: ct.Bytes, fanIn: ct.Flows,
			label: "cross %d",
		}
	}
	ep.reserve(ct.Flows, at)
	for j := range ct.Flows {
		s, _ := ep.wire(at(j))
		ep.startAt(s, ct.StartAt+units.Duration(j)*ct.Stagger)
	}
}

// crashTrack is the trace track of the proxy crash's span.
const crashTrack = 1

// crashProxy crashes the proxy host at Spec.ProxyCrashAt and, when
// ProxyRestartAfter is positive, restarts it that much later; otherwise it
// stays dead. While down the host neither sends nor receives (Host.SetDown),
// and its flow bindings survive the restart. The crash is reported as a fault:
// a "fault"/"host-crash" span on crashTrack with the host as its target, the
// faults_injected_total, faults_cleared_total and faults_active series, and
// the outage in microseconds in faults_outage_us once the host is back.
func (ep *epoch) crashProxy() {
	h, dur := ep.proxyHost, ep.spec.ProxyRestartAfter
	injected, cleared := ep.reg.Counter("faults_injected_total"), ep.reg.Counter("faults_cleared_total")
	active := ep.reg.Gauge("faults_active")
	outage := ep.reg.Histogram("faults_outage_us", obs.DefaultDurationBucketsMicros())
	target := obs.Arg{Key: "target", Val: h.Name()}
	ep.eng.Schedule(units.Time(ep.spec.ProxyCrashAt), func(e *sim.Engine) {
		h.SetDown(true)
		injected.Inc()
		active.Add(1)
		ep.tracer.Begin(e.Now(), "fault", "host-crash", crashTrack, target)
		if dur <= 0 {
			return
		}
		e.After(dur, func(e *sim.Engine) {
			h.SetDown(false)
			cleared.Inc()
			active.Add(-1)
			ep.tracer.End(e.Now(), "fault", "host-crash", crashTrack, target)
			outage.Observe(int64(dur) / int64(units.Microsecond))
		})
	})
}

// finish runs the epoch to completion (or MaxSimTime) and collects the
// result; config is the fingerprint the manifest hashes.
func (ep *epoch) finish(config string) RunResult {
	ep.eng.RunUntil(units.Time(ep.spec.MaxSimTime))
	rr := RunResult{
		ICT:       units.Duration(ep.lastDone),
		Completed: ep.done == ep.spec.Degree,
		Events:    ep.eng.Processed(),
		FlowFCT:   stats.SummarizeDurations(ep.fcts),
		Trace:     ep.tracer,
	}
	for _, s := range ep.senders {
		rr.Timeouts += s.Stats.Timeouts
		rr.Retransmits += s.Stats.Retransmits
		rr.Nacks += s.Stats.Nacks
		rr.MarkedAcks += s.Stats.MarkedAcks
		rr.PktsSent += s.Stats.PktsSent
	}
	rst := ep.net.DownToRPort(ep.recv).Stats()
	pst := ep.net.DownToRPort(ep.proxyHost).Stats()
	rr.ReceiverToRMaxQueue = rst.MaxBytes
	rr.ReceiverToRDrops = rst.Dropped
	rr.ProxyToRMaxQueue = pst.MaxBytes
	rr.ProxyToRTrims = pst.Trimmed
	rr.ProxyToRDrops = pst.Dropped
	if ep.infer != nil {
		rr.ProxyFalseNacks = ep.infer.Stats.FalseNacks
	}
	if ep.reg != nil {
		rr.Manifest = obs.NewManifest(ep.seed, config, ep.reg.Snapshot())
	}
	return rr
}

// incomplete is the error of a run that hit MaxSimTime with flows unfinished.
// Packets the fabric discarded without a queue counting them — no next hop at
// a switch, no endpoint at a host, a crashed host — are the usual cause of a
// flow that stalls for good, so their totals are named when there are any.
func (ep *epoch) incomplete(what string) error {
	var misses, unclaimed, down uint64
	for _, sw := range ep.net.Switches() {
		misses += sw.Misses
	}
	for dc := range ep.net.Hosts {
		for _, h := range ep.net.Hosts[dc] {
			unclaimed += h.Unclaimed
			down += h.DroppedDown
		}
	}
	cause := ""
	if misses+unclaimed+down > 0 {
		cause = fmt.Sprintf(" (fib_misses=%d unclaimed=%d host_down_drops=%d)", misses, unclaimed, down)
	}
	return fmt.Errorf("%s incomplete after %v: %d/%d flows done%s",
		what, ep.spec.MaxSimTime, ep.done, ep.spec.Degree, cause)
}
