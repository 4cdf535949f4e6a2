package control

import (
	"fmt"

	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// Action is a steering decision the policy engine hands to its caller.
type Action int

// The steer actions.
const (
	// ActNone: no action (internal).
	ActNone Action = iota
	// SteerProxy: upgrade the epoch from the direct path onto the proxy.
	SteerProxy
	// SteerDirect: downgrade from the proxy back onto the direct path
	// (proxy dead or congested — the shortest path is what's left).
	SteerDirect
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case SteerProxy:
		return "steer-proxy"
	case SteerDirect:
		return "steer-direct"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Route is where the epoch's traffic is currently steered.
type Route int

// The routes.
const (
	RouteDirect Route = iota
	RouteProxy
)

func (r Route) String() string {
	if r == RouteProxy {
		return "proxy"
	}
	return "direct"
}

// Steer records one executed re-steer for decision-metric assertions.
type Steer struct {
	At     units.Time
	Action Action
	Reason string
}

// Controller is the per-epoch policy engine. It ticks on virtual time,
// samples its queue signals, latches the epoch's incast onset, and — within
// its switch budget (MinDwell between steers, at most MaxSwitches) — asks
// its caller to re-steer via the OnSteer callback. The caller owns the
// actual re-homing; the controller owns when and which way.
type Controller struct {
	// overflow is the receiver ToR buffer, the budget of the
	// notification-driven onset rule: when flows registered with the
	// controller announce more aggregate bytes than this, the first window
	// alone must overflow the bottleneck queue, and the controller may steer
	// before the queue ever shows it.
	overflow units.ByteSize
	// onsetDepth latches onset when the receiver queue's instantaneous
	// depth reaches it. Onset has no mark-rate arm: with DCTCP-style
	// marking thresholds far below the buffer budget, any multi-megabyte
	// burst sustains marking while it lands, so a mark-rate onset would fire
	// on epochs that comfortably fit the buffer.
	onsetDepth units.ByteSize

	// onsetAt and onsetReason latch the epoch's incast onset: the first tick
	// on which the receiver queue or the announced bytes showed it. They hold
	// for the rest of the epoch; an empty reason means no onset yet.
	onsetAt     units.Time
	onsetReason string

	recvSig  *QueueSignal // receiver-side bottleneck (direct path)
	proxySig *QueueSignal // proxy-side bottleneck (proxy path)

	proxy PathEstimator // the proxy prober's liveness record

	route     Route
	switches  int
	announced units.ByteSize
	flows     int

	onSteer func(e *sim.Engine, a Action, reason string) bool
	steers  []Steer
	until   units.Time
	started bool

	lastSteerAt units.Time
	lastAction  Action

	tracer *obs.Tracer

	mTicks, mOnsets, mSteers   *obs.Counter
	mSteerProxy, mSteerDirect  *obs.Counter
	mFlaps, mVetoed, mDeferred *obs.Counter
	mDetectLatency             *obs.Histogram
}

// NewController builds a controller with no probe history for a fabric whose
// receiver ToR queue holds buffer bytes (positive: an unbounded ToR has no
// overflow to foresee, and workload.Spec.Validate rejects it). reg may be nil
// (metrics become no-ops).
func NewController(buffer units.ByteSize, reg *obs.Registry) *Controller {
	c := &Controller{
		overflow: buffer,
		// The queue must be well on its way past the buffer budget before
		// the depth arm declares onset (announcements catch the
		// first-window overflow long before any queue shows it, so this arm
		// only backstops unannounced traffic). An epoch that fits the buffer
		// transiently fills a good chunk of it while the burst lands; onset
		// below that would steer epochs the direct path handles fine.
		onsetDepth: buffer * 7 / 10,

		mTicks:       reg.Counter("control_ticks_total"),
		mOnsets:      reg.Counter("control_onsets_total"),
		mSteers:      reg.Counter("control_steers_total"),
		mSteerProxy:  reg.Counter("control_steer_proxy_total"),
		mSteerDirect: reg.Counter("control_steer_direct_total"),
		mFlaps:       reg.Counter("control_flaps_total"),
		mVetoed:      reg.Counter("control_steer_vetoed_total"),
		mDeferred:    reg.Counter("control_steer_deferred_total"),
		mDetectLatency: reg.Histogram("control_detection_latency_us",
			obs.DefaultDurationBucketsMicros()),
	}
	if reg != nil {
		reg.Collect(func(col *obs.Collector) {
			col.Gauge("control_route", int64(c.route))
			col.Gauge("control_switches", int64(c.switches))
		})
	}
	return c
}

// SetTracer attaches a tracer: the onset and the steering decisions become
// instant events on the "control" decision-timeline track, interleaved with
// the data-plane flow spans. Call before Start.
func (c *Controller) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// WatchReceiverQueue taps the receiver-side bottleneck queue (the direct
// path's congestion point). Call before Start.
func (c *Controller) WatchReceiverQueue(sig *QueueSignal) { c.recvSig = sig }

// WatchProxyQueue taps the proxy-side bottleneck queue. Call before Start.
func (c *Controller) WatchProxyQueue(sig *QueueSignal) { c.proxySig = sig }

// ProxyEstimator returns the proxy's liveness estimator (feed it probes).
func (c *Controller) ProxyEstimator() *PathEstimator { return &c.proxy }

// OnSteer installs the re-steer callback. The callback returns whether it
// actually moved anything; a false return does not consume a switch and the
// controller may retry on a later tick.
func (c *Controller) OnSteer(fn func(e *sim.Engine, a Action, reason string) bool) {
	c.onSteer = fn
}

// FlowStarted registers one announced flow of the epoch (the Pulser-style
// explicit notification: a sender declaring it is about to push bytes at the
// shared receiver). The controller aggregates announcements online; when the
// total exceeds the receiver ToR buffer the first-window burst cannot fit the
// receiver-side buffer and the next tick latches onset without waiting for
// the queue to prove it — the 2 ms it takes the burst to reach the remote
// ToR is exactly the budget the early steer wins back.
func (c *Controller) FlowStarted(bytes units.ByteSize) {
	c.announced += bytes
	c.flows++
}

// Route returns where the epoch is currently steered.
func (c *Controller) Route() Route { return c.route }

// Switches returns how many re-steers have executed.
func (c *Controller) Switches() int { return c.switches }

// Steers returns the executed decisions, in order.
func (c *Controller) Steers() []Steer { return c.steers }

// OnsetAt returns the latched incast onset instant, 0 before onset.
func (c *Controller) OnsetAt() units.Time { return c.onsetAt }

// Start begins the tick loop; until bounds it in virtual time.
func (c *Controller) Start(e *sim.Engine, until units.Time) {
	if c.started {
		return
	}
	c.started = true
	c.until = until
	e.Schedule(e.Now().Add(SamplePeriod), c.tick)
}

func (c *Controller) tick(e *sim.Engine) {
	now := e.Now()
	c.mTicks.Inc()
	if c.recvSig != nil {
		c.recvSig.Sample(now)
	}
	if c.proxySig != nil {
		c.proxySig.Sample(now)
	}
	if c.onsetReason == "" {
		c.detect(now)
	}
	c.evaluate(e)
	if next := now.Add(SamplePeriod); next <= c.until {
		e.Schedule(next, c.tick)
	}
}

// detect latches onset at now if either rule holds: the receiver queue at
// or above onsetDepth, or the announced bytes past the buffer (the first
// window alone must overflow it).
func (c *Controller) detect(now units.Time) {
	switch {
	case c.recvSig != nil && c.recvSig.RawDepth() >= c.onsetDepth:
		c.onsetReason = "queue-onset"
	case c.announced > c.overflow:
		c.onsetReason = "announced-overflow"
	default:
		return
	}
	c.onsetAt = now
	c.mOnsets.Inc()
	c.tracer.Instant(now, "control", "onset", 0, obs.Arg{Key: "reason", Val: c.onsetReason})
}

// evaluate runs one policy step.
func (c *Controller) evaluate(e *sim.Engine) {
	switch c.route {
	case RouteDirect:
		if c.onsetReason == "" || c.switches >= MaxSwitches {
			return
		}
		if !c.proxyUsable() {
			c.mDeferred.Inc()
			return
		}
		c.steer(e, SteerProxy, c.onsetReason)
	case RouteProxy:
		if c.switches >= MaxSwitches {
			return
		}
		// Once the epoch is on the proxy, the proxy-side bottleneck is
		// *supposed* to be deep: trim+NACK keeps the path productive while
		// the queue drains at line rate. Congestion therefore stops meaning
		// "degraded" here — only losing the proxy itself (probe loss past
		// the down threshold) justifies dumping the epoch back onto the
		// path it was steered off of.
		if c.proxy.Healthy(ProbeLoss) {
			return
		}
		c.steer(e, SteerDirect, "proxy-degraded")
	}
}

// proxyUsable decides whether the proxy path is worth steering onto: probe
// loss below the down threshold, and the proxy-side bottleneck neither deep
// nor sustaining contention marking. It gates the upgrade only; see evaluate
// for the (liveness-only) downgrade rule.
func (c *Controller) proxyUsable() bool {
	return c.proxy.Healthy(ProbeLoss) &&
		(c.proxySig == nil || !c.proxySig.Congested(c.onsetDepth, BusyMarkRate))
}

func (c *Controller) steer(e *sim.Engine, a Action, reason string) {
	now := e.Now()
	if c.lastSteerAt != 0 && now.Sub(c.lastSteerAt) < MinDwell {
		return
	}
	acted := true
	if c.onSteer != nil {
		acted = c.onSteer(e, a, reason)
	}
	if !acted {
		c.mVetoed.Inc()
		return
	}
	c.switches++
	c.steers = append(c.steers, Steer{At: now, Action: a, Reason: reason})
	c.mSteers.Inc()
	c.tracer.Instant(now, "control", a.String(), 0, obs.Arg{Key: "reason", Val: reason})
	switch a {
	case SteerProxy:
		c.route = RouteProxy
		c.mSteerProxy.Inc()
		c.mDetectLatency.Observe(int64(now.Sub(c.onsetAt) / units.Microsecond))
	case SteerDirect:
		c.route = RouteDirect
		c.mSteerDirect.Inc()
	}
	if c.lastAction != ActNone && c.lastAction != a &&
		now.Sub(c.lastSteerAt) < 10*MinDwell {
		c.mFlaps.Inc()
	}
	c.lastSteerAt, c.lastAction = now, a
}
