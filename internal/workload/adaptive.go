package workload

// The adaptive scheme: flows start on the direct path under a small paced
// window while an online controller (internal/control) watches the two
// candidate bottlenecks and probes the proxy's liveness. The moment
// the announced epoch provably overflows the receiver ToR — or the queue
// itself shows onset — the controller steers the epoch onto the streamlined
// proxy mid-flight. Re-steering is suffix-based when safe: each direct leg
// sends no new byte (FreezeNew: its in-flight bytes finish on the direct
// path, with loss recovery) and only the un-sent suffix is re-homed, with a buffer-safe
// subset of flows kept direct so both paths carry payload in parallel. A
// dead proxy (probe loss) steers flows back onto the direct path. Every
// decision advances on virtual time from seed-derived randomness, so
// adaptive runs are as deterministic as static ones.

import (
	"incastproxy/internal/control"
	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
)

// startAdaptive is the adaptive strategy: the controller, its queue signals
// and proxy prober, and the epoch's flows as chains of legs it re-steers. The
// returned function fills the finished run's decision record.
func (ep *epoch) startAdaptive() func(*RunResult) {
	spec, e, net := ep.spec, ep.eng, ep.net
	recv, proxyHost := ep.recv, ep.proxyHost
	cfg := net.Cfg
	buffer := cfg.TorQueue.Capacity // Spec.Validate keeps it positive

	senders := net.Hosts[0][:spec.Degree]
	until := units.Time(spec.MaxSimTime)

	ctrl := control.NewController(buffer, ep.reg)
	// The controller records its own decision timeline: the latched onset
	// and executed steers land on the trace's "control" track, interleaved
	// with the flow events.
	ctrl.SetTracer(ep.tracer)
	recvSig := control.WatchPort("recv-tor", net.DownToRPort(recv))
	proxySig := control.WatchPort("proxy-tor", net.DownToRPort(proxyHost))
	ctrl.WatchReceiverQueue(recvSig)
	ctrl.WatchProxyQueue(proxySig)

	// The proxy prober: tiny data-band echo packets that prove the proxy is
	// alive. It runs from the DC0 host beside the proxy, which carries no
	// flow (Spec.Validate keeps it free): a sender's NIC queue is unbounded
	// and holds that sender's own window, so a probe from a sender can wait
	// there for milliseconds. From the idle host a probe queues only in the
	// proxy ToR, and its timeout rides above the worst queueing that buffer
	// allows — a probe stuck behind a full bottleneck buffer is slow, not
	// lost, and counting it lost would declare the proxy dead the moment our
	// own steered epoch fills its ToR queue.
	prober := net.Hosts[0][len(net.Hosts[0])-2]
	drain := cfg.LinkRate.TransmitTime(buffer)
	timeout := ep.path(prober, nil, proxyHost).RTT + 2*drain
	control.BindEcho(proxyHost, control.ProbeFlowBase)
	control.NewProber(prober, proxyHost.ID(), control.ProbeFlowBase, ctrl.ProxyEstimator(),
		control.ProbeEvery, timeout, ep.src.Split(1002)).Start(e, until)

	// Per-flow epoch state: each flow is a chain of legs, and the flow
	// completes when every leg has delivered the bytes it owns. A direct
	// leg held by FreezeNew owns exactly what it had sent by then; a
	// re-homed leg owns the remainder.
	type leg struct {
		sender   *transport.Sender
		receiver *transport.Receiver
		need     units.ByteSize
		met      bool
	}
	type flowState struct {
		share    units.ByteSize
		directIW units.ByteSize // the un-paced direct-path window
		legs     []*leg
		viaProxy bool
		done     bool
	}
	flows := make([]*flowState, spec.Degree)
	for i, share := range splitBytes(spec.TotalBytes, spec.Degree) {
		iw := transport.ConfigFor(ep.path(senders[i], nil, recv)).InitWindow
		flows[i] = &flowState{share: share, directIW: iw}
	}
	var rehomedFlows, keptDirect int
	var rehomedBytes units.ByteSize

	// A flow is done when every leg's receiver has what it owns, regardless
	// of which path carried the suffix.
	checkFlow := func(i int, at units.Time) {
		fs := flows[i]
		for _, l := range fs.legs {
			if !l.met {
				return
			}
		}
		if !fs.done {
			fs.done = true
			ep.flowDone(at)
		}
	}

	// addLeg wires and starts the next leg of flow i on the given route.
	// iwCap, when positive, caps the initial window (the paced direct phase).
	addLeg := func(i int, bytes units.ByteSize, viaProxy bool, iwCap units.ByteSize) {
		fs := flows[i]
		l := &leg{need: bytes}
		f := flow{
			id: legFlowID(i, len(fs.legs)), src: senders[i], dst: recv, scheme: ProxyStreamlined,
			bytes: bytes, fanIn: spec.Degree, iwCap: iwCap, label: "flow %d",
			done: func(at units.Time) {
				l.met = true
				checkFlow(i, at)
			},
		}
		if viaProxy {
			f.via = proxyHost
		}
		if len(fs.legs) > 0 {
			f.label = "flow %d (resteer)"
		}
		l.sender, l.receiver = ep.wire(f)
		fs.legs = append(fs.legs, l)
		l.sender.Start(e)
	}

	// directLeg returns fs's live leg while the flow is unfinished and on the
	// direct path, nil otherwise.
	directLeg := func(fs *flowState) *leg {
		if fs.done || fs.viaProxy || len(fs.legs) == 0 {
			return nil
		}
		return fs.legs[len(fs.legs)-1]
	}

	// abortLeg stops l, trusting nothing in flight: the leg now owns only
	// what had arrived. It returns the bytes its receiver still lacked.
	abortLeg := func(l *leg) units.ByteSize {
		l.sender.Abort()
		got := l.receiver.Bytes()
		remaining := l.need - got
		l.need, l.met = got, true
		return remaining
	}

	// steerToProxy executes one direct->proxy upgrade across all live
	// direct flows. Returns whether anything actually moved (the
	// controller's veto protocol).
	steerToProxy := func(e *sim.Engine) bool {
		now := e.Now()
		// Suffix mode is safe when the receiver ToR has dropped nothing
		// and the bytes already exposed on the direct path comfortably
		// fit its buffer: the exposed prefix then completes on the
		// direct path while only un-sent suffixes move.
		var exposed units.ByteSize
		for _, fs := range flows {
			if l := directLeg(fs); l != nil {
				exposed += l.sender.SentBytes() - l.receiver.Bytes()
			}
		}
		safeBudget := units.ByteSize(control.SafeDepthFrac * float64(buffer))
		suffix := recvSig.Drops() == 0 && exposed+recvSig.RawDepth() < safeBudget

		moved := 0
		var kept units.ByteSize
		for i, fs := range flows {
			l := directLeg(fs)
			if l == nil {
				continue
			}
			// Partial rebalance: keep a prefix of flows direct while
			// their whole shares fit the buffer budget. The kept
			// subset streams over the otherwise-abandoned direct path
			// in parallel with the proxied rest.
			if suffix && kept+fs.share <= safeBudget {
				kept += fs.share
				keptDirect++
				l.sender.Boost(e, fs.directIW)
				continue
			}
			var remaining units.ByteSize
			if suffix {
				sent := l.sender.SentBytes()
				remaining = l.need - sent
				if remaining <= 0 {
					continue // fully exposed; nothing left to move
				}
				l.sender.FreezeNew()
				l.need = sent
				if l.receiver.Bytes() >= l.need {
					l.met = true
				} else {
					li, ll := i, l
					l.receiver.OnData = func(e2 *sim.Engine, _ *netsim.Packet) {
						if !ll.met && ll.receiver.Bytes() >= ll.need {
							ll.met = true
							checkFlow(li, e2.Now())
						}
					}
				}
			} else if remaining = abortLeg(l); remaining <= 0 {
				checkFlow(i, now)
				continue
			}
			fs.viaProxy = true
			addLeg(i, remaining, true, 0)
			rehomedFlows++
			rehomedBytes += remaining
			moved++
		}
		return moved > 0
	}

	// steerToDirect downgrades every proxied flow back onto the direct
	// path, conservatively (abortLeg: the proxy path just proved lossy).
	steerToDirect := func(e *sim.Engine) bool {
		now := e.Now()
		moved := 0
		for i, fs := range flows {
			if fs.done || !fs.viaProxy {
				continue
			}
			remaining := abortLeg(fs.legs[len(fs.legs)-1])
			fs.viaProxy = false
			if remaining <= 0 {
				checkFlow(i, now)
				continue
			}
			addLeg(i, remaining, false, 0)
			rehomedFlows++
			rehomedBytes += remaining
			moved++
		}
		return moved > 0
	}

	ctrl.OnSteer(func(e *sim.Engine, a control.Action, reason string) bool {
		// The controller's tracer records acted steers; this callback
		// only moves the flows.
		switch a {
		case control.SteerProxy:
			return steerToProxy(e)
		case control.SteerDirect:
			return steerToDirect(e)
		}
		return false
	})
	ctrl.Start(e, until)

	// The epoch itself: every flow announces its share to the controller
	// and starts direct under the paced window; pacing is released two
	// ticks later for any flow the controller left on the direct path.
	startEpoch := func(e *sim.Engine) {
		for i := range flows {
			ctrl.FlowStarted(flows[i].share)
			addLeg(i, flows[i].share, false, control.PaceWindow)
		}
		e.Schedule(e.Now().Add(2*control.SamplePeriod), func(e *sim.Engine) {
			for _, fs := range flows {
				if l := directLeg(fs); l != nil {
					l.sender.Boost(e, fs.directIW)
				}
			}
		})
	}
	if spec.IncastDelay > 0 {
		e.Schedule(units.Time(spec.IncastDelay), startEpoch)
	} else {
		startEpoch(e)
	}

	return func(rr *RunResult) {
		rr.Steers = ctrl.Steers()
		rr.OnsetAt = ctrl.OnsetAt()
		rr.FinalRoute = ctrl.Route().String()
		rr.RehomedFlows = rehomedFlows
		rr.RehomedBytes = rehomedBytes
		rr.KeptDirect = keptDirect
	}
}
