package workload

// The adaptive scheme's controller: it watches the telemetry the simulator
// already produces (queue depth, ECN mark and drop counters) and the flows'
// announcements, latches the epoch's incast onset online, and within its
// switch budget steers the epoch between the direct WAN path and the proxy
// ("the shortest path is not necessarily the fastest" — but which path is
// fastest changes over time). It advances on virtual time only: samples are
// taken on engine ticks and the prober's phase is seed-derived, so adaptive
// runs stay byte-identical between serial and parallel execution.

import (
	"fmt"
	"math"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// The controller's thresholds. The adaptive scheme runs one configuration,
// and its only input is the receiver ToR buffer newController takes: the
// announced-overflow arm fires past it, and the queue-depth arm is tuned to
// it. Everything else is a constant here.
const (
	// samplePeriod is the controller tick: every period it samples the
	// watched queues, latches onset if it has not yet, and evaluates the
	// policy.
	samplePeriod = 20 * units.Microsecond
	// halfLife smooths the proxy-side queue's ECN mark rate.
	halfLife = 100 * units.Microsecond

	// minDwell is the minimum time between two executed steers.
	minDwell = 100 * units.Microsecond

	// busyMarkRate is the sustained ECN mark rate (marks/sec) at the
	// proxy-side bottleneck above which the proxy path counts as busy with
	// competing traffic and is not worth steering onto. Marking is the right
	// busyness signal there: ECN-governed cross traffic keeps the queue
	// shallow, so a depth threshold alone never sees the contention.
	busyMarkRate = 200_000.0

	// maxSwitches caps re-steers per epoch; together with minDwell it
	// bounds flapping.
	maxSwitches = 2

	// probeEvery is the proxy prober's period.
	probeEvery = 200 * units.Microsecond
	// probeLoss is the smoothed probe-loss fraction at or above which the
	// proxy is considered down.
	probeLoss = 0.5

	// safeDepthFrac bounds suffix-mode re-homing: in-flight bytes plus
	// current queue depth must stay under this fraction of the receiver ToR
	// buffer for the un-sent-suffix re-steer to be safe (steerToProxy).
	safeDepthFrac = 0.5

	// paceWindow caps each adaptive flow's initial congestion window until
	// the controller's first verdict. A flow exposes at most this many
	// bytes to the network while the steer decision is pending, so a
	// mid-epoch upgrade onto the proxy re-homes nearly the whole share as
	// an un-sent suffix instead of re-transmitting it. Released (Boost to
	// the full 1-BDP window) once the epoch is confirmed direct.
	paceWindow = 64 * units.KB
)

// action is a steering decision the controller hands to its steer function.
type action int

// The steer actions.
const (
	actNone action = iota
	// steerProxy: upgrade the epoch from the direct path onto the proxy.
	steerProxy
	// steerDirect: downgrade from the proxy back onto the direct path
	// (proxy dead or congested — the shortest path is what's left).
	steerDirect
)

func (a action) String() string {
	switch a {
	case actNone:
		return "none"
	case steerProxy:
		return "steer-proxy"
	case steerDirect:
		return "steer-direct"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// route is where the epoch's traffic is currently steered.
type route int

// The routes.
const (
	routeDirect route = iota
	routeProxy
)

func (r route) String() string {
	if r == routeProxy {
		return "proxy"
	}
	return "direct"
}

// Steer records one executed re-steer for decision-metric assertions.
type Steer struct {
	At     units.Time
	Action action
	Reason string
}

// markRate turns a port's monotonically increasing ECN mark counter into a
// smoothed marks-per-second estimate over virtual time. The smoothing is an
// exponentially weighted average with a half-life, independent of the sample
// period: a rate dt old carries weight 2^(-dt/halfLife). The first sample
// primes the counter, and the first rate taken from it primes the average.
type markRate struct {
	value     float64
	lastCount uint64
	lastT     units.Time
	samples   int // 0, 1 once the counter is primed, 2 once the average is
}

// observe records the counter's value at virtual time now.
func (r *markRate) observe(now units.Time, count uint64) {
	if r.samples == 0 {
		r.lastCount, r.lastT, r.samples = count, now, 1
		return
	}
	dt := now.Sub(r.lastT)
	if dt <= 0 {
		return
	}
	var delta uint64
	if count > r.lastCount {
		delta = count - r.lastCount
	}
	r.lastCount, r.lastT = count, now
	v := float64(delta) / dt.Seconds()
	if r.samples == 1 {
		r.value, r.samples = v, 2
		return
	}
	w := 1 - math.Exp2(-float64(dt)/float64(halfLife))
	r.value += w * (v - r.value)
}

// controller is the per-epoch policy engine. It ticks on virtual time,
// samples its two watched queues, latches the epoch's incast onset, and —
// within its switch budget (minDwell between steers, at most maxSwitches) —
// asks its steer function to re-steer. startAdaptive owns the actual
// re-homing; the controller owns when and which way.
type controller struct {
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

	// The receiver-side bottleneck (direct path) and the proxy-side one
	// (proxy path), with what the last tick read from them.
	recvPort, proxyPort   *netsim.Port
	recvDepth, proxyDepth units.ByteSize
	recvDrops             uint64
	proxyMarks            markRate

	proxy pathEstimator // the proxy prober's liveness record

	route     route
	switches  int
	announced units.ByteSize

	// steer moves the epoch's flows and returns whether it actually moved
	// anything; a false return does not consume a switch and the controller
	// may retry on a later tick.
	steer  func(e *sim.Engine, a action, reason string) bool
	steers []Steer
	until  units.Time

	lastSteerAt units.Time
	lastAction  action

	tracer *obs.Tracer

	mTicks, mOnsets, mSteers   *obs.Counter
	mSteerProxy, mSteerDirect  *obs.Counter
	mFlaps, mVetoed, mDeferred *obs.Counter
	mDetectLatency             *obs.Histogram
}

// newController builds a controller with no probe history for a fabric whose
// receiver ToR queue holds buffer bytes (positive: an unbounded ToR has no
// overflow to foresee, and Spec.Validate rejects it). It watches recv, the
// receiver's down-ToR port, and proxy, the proxy's. reg and tr may be nil
// (metrics become no-ops); with a tracer, the onset and the executed steers
// land as instants on the "control" decision-timeline track, interleaved
// with the flow events.
func newController(buffer units.ByteSize, reg *obs.Registry, tr *obs.Tracer, recv, proxy *netsim.Port,
	steer func(e *sim.Engine, a action, reason string) bool) *controller {
	c := &controller{
		overflow: buffer,
		// The queue must be well on its way past the buffer budget before
		// the depth arm declares onset (announcements catch the
		// first-window overflow long before any queue shows it, so this arm
		// only backstops unannounced traffic). An epoch that fits the buffer
		// transiently fills a good chunk of it while the burst lands; onset
		// below that would steer epochs the direct path handles fine.
		onsetDepth: buffer * 7 / 10,
		recvPort:   recv,
		proxyPort:  proxy,
		steer:      steer,
		tracer:     tr,

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

// flowStarted registers one announced flow of the epoch (the Pulser-style
// explicit notification: a sender declaring it is about to push bytes at the
// shared receiver). The controller aggregates announcements online; when the
// total exceeds the receiver ToR buffer the first-window burst cannot fit the
// receiver-side buffer and the next tick latches onset without waiting for
// the queue to prove it — the 2 ms it takes the burst to reach the remote
// ToR is exactly the budget the early steer wins back.
func (c *controller) flowStarted(bytes units.ByteSize) {
	c.announced += bytes
}

// start begins the tick loop; until bounds it in virtual time.
func (c *controller) start(e *sim.Engine, until units.Time) {
	c.until = until
	e.Schedule(e.Now().Add(samplePeriod), c.tick)
}

func (c *controller) tick(e *sim.Engine) {
	now := e.Now()
	c.mTicks.Inc()
	c.sample(now)
	if c.onsetReason == "" {
		c.detect(now)
	}
	c.evaluate(e)
	if next := now.Add(samplePeriod); next <= c.until {
		e.Schedule(next, c.tick)
	}
}

// sample reads the two watched ports at virtual time now: each port's
// counters first, then its depth.
func (c *controller) sample(now units.Time) {
	c.recvDrops = c.recvPort.Stats().Dropped
	c.recvDepth = c.recvPort.QueuedBytes()
	marked := c.proxyPort.Stats().Marked
	c.proxyDepth = c.proxyPort.QueuedBytes()
	c.proxyMarks.observe(now, marked)
}

// detect latches onset at now if either rule holds: the receiver queue at
// or above onsetDepth, or the announced bytes past the buffer (the first
// window alone must overflow it).
func (c *controller) detect(now units.Time) {
	switch {
	case c.recvDepth >= c.onsetDepth:
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
func (c *controller) evaluate(e *sim.Engine) {
	switch c.route {
	case routeDirect:
		if c.onsetReason == "" || c.switches >= maxSwitches {
			return
		}
		if !c.proxyUsable() {
			c.mDeferred.Inc()
			return
		}
		c.act(e, steerProxy, c.onsetReason)
	case routeProxy:
		if c.switches >= maxSwitches {
			return
		}
		// Once the epoch is on the proxy, the proxy-side bottleneck is
		// *supposed* to be deep: trim+NACK keeps the path productive while
		// the queue drains at line rate. Congestion therefore stops meaning
		// "degraded" here — only losing the proxy itself (probe loss past
		// the down threshold) justifies dumping the epoch back onto the
		// path it was steered off of.
		if c.proxy.healthy(probeLoss) {
			return
		}
		c.act(e, steerDirect, "proxy-degraded")
	}
}

// proxyUsable decides whether the proxy path is worth steering onto: probe
// loss below the down threshold, and the proxy-side bottleneck neither deep
// nor sustaining contention marking (ECN-governed cross traffic keeps the
// queue shallow but marks steadily). It gates the upgrade only; see evaluate
// for the (liveness-only) downgrade rule.
func (c *controller) proxyUsable() bool {
	busy := c.onsetDepth > 0 && c.proxyDepth >= c.onsetDepth || c.proxyMarks.value >= busyMarkRate
	return c.proxy.healthy(probeLoss) && !busy
}

// act hands one decision to the steer function and, if it moved anything,
// spends a switch on it.
func (c *controller) act(e *sim.Engine, a action, reason string) {
	now := e.Now()
	if c.lastSteerAt != 0 && now.Sub(c.lastSteerAt) < minDwell {
		return
	}
	if !c.steer(e, a, reason) {
		c.mVetoed.Inc()
		return
	}
	c.switches++
	c.steers = append(c.steers, Steer{At: now, Action: a, Reason: reason})
	c.mSteers.Inc()
	c.tracer.Instant(now, "control", a.String(), 0, obs.Arg{Key: "reason", Val: reason})
	switch a {
	case steerProxy:
		c.route = routeProxy
		c.mSteerProxy.Inc()
		c.mDetectLatency.Observe(int64(now.Sub(c.onsetAt) / units.Microsecond))
	case steerDirect:
		c.route = routeDirect
		c.mSteerDirect.Inc()
	}
	if c.lastAction != actNone && c.lastAction != a &&
		now.Sub(c.lastSteerAt) < 10*minDwell {
		c.mFlaps.Inc()
	}
	c.lastSteerAt, c.lastAction = now, a
}
