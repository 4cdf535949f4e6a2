package control

import "incastproxy/internal/units"

// The controller's thresholds. The adaptive scheme runs one configuration,
// and its only input is the receiver ToR buffer NewController takes: the
// announced-overflow arm fires past it, and the queue-depth arm is tuned to
// it. Everything else is a constant here.
const (
	// SamplePeriod is the controller tick: every period it samples the
	// watched queues, latches onset if it has not yet, and evaluates the
	// policy.
	SamplePeriod = 20 * units.Microsecond
	// HalfLife smooths the queue signals' ECN mark rate.
	HalfLife = 100 * units.Microsecond

	// MinDwell is the minimum time between two executed steers.
	MinDwell = 100 * units.Microsecond

	// BusyMarkRate is the sustained ECN mark rate (marks/sec) at the
	// proxy-side bottleneck above which the proxy path counts as busy with
	// competing traffic and is not worth steering onto. Marking is the right
	// busyness signal there: ECN-governed cross traffic keeps the queue
	// shallow, so a depth threshold alone never sees the contention.
	BusyMarkRate = 200_000.0

	// MaxSwitches caps re-steers per epoch; together with MinDwell it
	// bounds flapping.
	MaxSwitches = 2

	// ProbeEvery is the proxy prober's period.
	ProbeEvery = 200 * units.Microsecond
	// ProbeLoss is the smoothed probe-loss fraction at or above which the
	// proxy is considered down.
	ProbeLoss = 0.5

	// SafeDepthFrac bounds suffix-mode re-homing: in-flight bytes plus
	// current queue depth must stay under this fraction of the receiver ToR
	// buffer for the un-sent-suffix re-steer to be safe (see workload).
	SafeDepthFrac = 0.5

	// PaceWindow caps each adaptive flow's initial congestion window until
	// the controller's first verdict. A flow exposes at most this many
	// bytes to the network while the steer decision is pending, so a
	// mid-epoch upgrade onto the proxy re-homes nearly the whole share as
	// an un-sent suffix instead of re-transmitting it. Released (Boost to
	// the full 1-BDP window) once the epoch is confirmed direct.
	PaceWindow = 64 * units.KB
)
