package proxy

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// InferringStats counts the inferring proxy's activity, including the
// error sources §5's future work #1 asks about.
type InferringStats struct {
	DataForwarded uint64
	NacksSent     uint64
	AcksRelayed   uint64
	NacksRelayed  uint64
	// FalseNacks counts NACKs later contradicted by the original
	// packet's arrival (reordering mistaken for loss).
	FalseNacks uint64
}

// InferringGroup is the future-work #1 proxy: it provides early loss
// feedback *without* switch trimming support by inferring losses from
// sequence gaps, disambiguating reordering (packet spraying!) from real
// loss with a time threshold and eBPF-like bounded memory
// (LossTracker). One group serves every flow relayed through one
// proxy host, sharing a single bounded flow table — exactly the resource
// constraint an eBPF map imposes.
type InferringGroup struct {
	host    *netsim.Host
	tracker *LossTracker
	flows   map[netsim.FlowID]inferFlow

	// FlushEvery is the period of the tracker's timer-driven hole
	// expiry (how quickly losses are declared without new arrivals).
	FlushEvery units.Duration
	// ProcDelay models per-packet processing (the inferring program
	// does more work than the streamlined trim check).
	ProcDelay rng.Distribution
	src       *rng.Source

	started bool
	until   units.Time
	Stats   InferringStats
}

type inferFlow struct {
	sender, receiver netsim.NodeID
}

// NewInferringGroup creates the group at the proxy host. trackerCfg bounds
// the loss tracker's memory; flushEvery drives timer-based hole expiry
// (default 50 us).
func NewInferringGroup(host *netsim.Host, trackerCfg LossTrackerConfig,
	flushEvery units.Duration, procDelay rng.Distribution, src *rng.Source) *InferringGroup {
	if flushEvery <= 0 {
		flushEvery = 50 * units.Microsecond
	}
	return &InferringGroup{
		host:       host,
		tracker:    NewLossTracker(trackerCfg),
		flows:      make(map[netsim.FlowID]inferFlow),
		FlushEvery: flushEvery,
		ProcDelay:  procDelay,
		src:        src,
	}
}

// Tracker exposes the underlying loss tracker (for error-rate telemetry).
func (g *InferringGroup) Tracker() *LossTracker { return g.tracker }

// AddFlow registers one relayed flow and binds the group at the proxy
// host for it.
func (g *InferringGroup) AddFlow(flow netsim.FlowID, sender, receiver netsim.NodeID) {
	g.flows[flow] = inferFlow{sender: sender, receiver: receiver}
	g.host.Bind(flow, endpointForFlow{g, flow})
}

// Start arms the periodic flush loop until the given simulated time.
func (g *InferringGroup) Start(e *sim.Engine, until units.Time) {
	if g.started {
		return
	}
	g.started = true
	g.until = until
	var tick sim.Event
	tick = func(e *sim.Engine) {
		for _, loss := range g.tracker.Flush(e.Now()) {
			g.nack(e, netsim.FlowID(loss.Flow), int64(loss.Seq))
		}
		next := e.Now().Add(g.FlushEvery)
		if next <= g.until {
			e.Schedule(next, tick)
		}
	}
	e.After(g.FlushEvery, tick)
}

// endpointForFlow adapts the group to netsim.Endpoint for one flow.
type endpointForFlow struct {
	g    *InferringGroup
	flow netsim.FlowID
}

// Handle implements netsim.Endpoint.
func (ef endpointForFlow) Handle(e *sim.Engine, pkt *netsim.Packet) {
	g := ef.g
	d := units.Duration(0)
	if g.ProcDelay != nil {
		d = g.ProcDelay.Sample(g.src)
	}
	if d <= 0 {
		g.process(e, ef.flow, pkt)
		return
	}
	e.ScheduleHandler(e.Now().Add(d), 0, (*inferringDelay)(g), pkt)
}

// inferringDelay is the group as the handler of its processing-delay event.
// The packet rides as the argument and names its own flow: the host
// demultiplexed on pkt.Flow to reach the endpoint that scheduled this.
type inferringDelay InferringGroup

func (d *inferringDelay) Fire(e *sim.Engine, arg any) {
	pkt := arg.(*netsim.Packet)
	(*InferringGroup)(d).process(e, pkt.Flow, pkt)
}

func (g *InferringGroup) process(e *sim.Engine, flow netsim.FlowID, pkt *netsim.Packet) {
	fl, ok := g.flows[flow]
	if !ok {
		return
	}
	switch pkt.Kind {
	case netsim.Data:
		before := g.tracker.Stats.LateArrivals
		losses := g.tracker.Observe(uint64(flow), uint64(pkt.Seq), e.Now())
		if !pkt.Retx {
			// A flagged sequence arriving as an *original* (not a
			// retransmission) means reordering was mistaken for
			// loss — the NACK was a false positive. A
			// retransmission filling the hole is the expected
			// outcome of a correct NACK.
			g.Stats.FalseNacks += g.tracker.Stats.LateArrivals - before
		}
		for _, l := range losses {
			g.nack(e, netsim.FlowID(l.Flow), int64(l.Seq))
		}
		g.Stats.DataForwarded++
		pkt.Dst = fl.receiver
		pkt.Hops = 0
		g.host.Send(e, pkt)
	case netsim.Ack:
		g.Stats.AcksRelayed++
		pkt.Dst = fl.sender
		pkt.Hops = 0
		g.host.Send(e, pkt)
	default:
		g.Stats.NacksRelayed++
		pkt.Dst = fl.sender
		pkt.Hops = 0
		g.host.Send(e, pkt)
	}
}

func (g *InferringGroup) nack(e *sim.Engine, flow netsim.FlowID, seq int64) {
	fl, ok := g.flows[flow]
	if !ok {
		return
	}
	g.Stats.NacksSent++
	n := g.host.NewPacket()
	n.Flow = flow
	n.Kind = netsim.Nack
	n.Seq = seq
	n.Size = netsim.ControlSize
	n.FullSize = netsim.ControlSize
	n.Dst = fl.sender
	g.host.Send(e, n)
}
