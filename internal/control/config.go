package control

import (
	"fmt"

	"incastproxy/internal/units"
)

// Config holds every controller threshold. The zero value is not usable;
// ConfigFor derives the one configuration the adaptive scheme runs.
type Config struct {
	// SamplePeriod is the controller tick: every period it samples the
	// watched queues, latches onset if it has not yet, and evaluates the
	// policy.
	SamplePeriod units.Duration
	// HalfLife smooths the queue signals' ECN mark rate.
	HalfLife units.Duration

	// OnsetDepth latches onset when the receiver queue's instantaneous
	// depth reaches it. Onset has no mark-rate arm: with DCTCP-style
	// marking thresholds far below the buffer budget, any multi-megabyte
	// burst sustains marking while it lands, so a mark-rate onset would fire
	// on epochs that comfortably fit the buffer.
	OnsetDepth units.ByteSize
	// MinDwell is the minimum time between two executed steers.
	MinDwell units.Duration

	// BusyMarkRate is the sustained ECN mark rate (marks/sec) at the
	// proxy-side bottleneck above which the proxy path counts as busy with
	// competing traffic and is not worth steering onto. Marking is the right
	// busyness signal there: ECN-governed cross traffic keeps the queue
	// shallow, so a depth threshold alone never sees the contention.
	// <= 0 disables the arm.
	BusyMarkRate float64

	// OverflowBytes is the receiver-side buffer budget used for
	// notification-driven onset: when flows registered with the
	// controller announce more aggregate bytes than this, the first
	// window alone must overflow the bottleneck queue, and the controller
	// may steer before the queue ever shows it. ConfigFor sets it to the
	// receiver ToR buffer.
	OverflowBytes units.ByteSize

	// MaxSwitches caps re-steers per epoch; together with MinDwell it
	// bounds flapping.
	MaxSwitches int

	// ProbeEvery is the proxy prober's period.
	ProbeEvery units.Duration
	// ProbeLoss is the smoothed probe-loss fraction at or above which the
	// proxy is considered down.
	ProbeLoss float64

	// SafeDepthFrac bounds suffix-mode re-homing: in-flight bytes plus
	// current queue depth must stay under this fraction of OverflowBytes
	// for the un-sent-suffix re-steer to be safe (see workload).
	SafeDepthFrac float64

	// PaceWindow caps each adaptive flow's initial congestion window until
	// the controller's first verdict. A flow exposes at most this many
	// bytes to the network while the steer decision is pending, so a
	// mid-epoch upgrade onto the proxy re-homes nearly the whole share as
	// an un-sent suffix instead of re-transmitting it. Released (Boost to
	// the full 1-BDP window) once the epoch is confirmed direct.
	PaceWindow units.ByteSize
}

// ConfigFor returns the controller thresholds for a fabric whose receiver
// ToR queue holds buffer bytes: the announced-overflow arm fires past the
// buffer, and the queue-depth arm is tuned to it. An unbounded ToR
// (buffer 0) yields a config that fails Validate.
func ConfigFor(buffer units.ByteSize) Config {
	c := Config{
		SamplePeriod:  20 * units.Microsecond,
		HalfLife:      100 * units.Microsecond,
		BusyMarkRate:  200_000,
		MinDwell:      100 * units.Microsecond,
		OverflowBytes: buffer,
		MaxSwitches:   2,
		ProbeEvery:    200 * units.Microsecond,
		ProbeLoss:     0.5,
		SafeDepthFrac: 0.5,
		PaceWindow:    64 * units.KB,
	}
	// The queue must be well on its way past the buffer budget before the
	// depth arm declares onset (announcements catch the first-window
	// overflow long before any queue shows it, so this arm only backstops
	// unannounced traffic). An epoch that fits the buffer transiently fills
	// a good chunk of it while the burst lands; onset below that would
	// steer epochs the direct path handles fine.
	c.OnsetDepth = buffer * 7 / 10
	return c
}

// Validate reports threshold inconsistencies.
func (c Config) Validate() error {
	switch {
	case c.SamplePeriod <= 0:
		return fmt.Errorf("control: SamplePeriod must be positive, got %v", c.SamplePeriod)
	case c.HalfLife <= 0:
		return fmt.Errorf("control: HalfLife must be positive, got %v", c.HalfLife)
	case c.OnsetDepth <= 0:
		return fmt.Errorf("control: OnsetDepth must be positive, got %v", c.OnsetDepth)
	case c.BusyMarkRate < 0:
		return fmt.Errorf("control: BusyMarkRate must be >= 0, got %g", c.BusyMarkRate)
	case c.MinDwell < 0:
		return fmt.Errorf("control: MinDwell must be >= 0, got %v", c.MinDwell)
	case c.OverflowBytes <= 0:
		return fmt.Errorf("control: OverflowBytes must be positive, got %v", c.OverflowBytes)
	case c.MaxSwitches < 0:
		return fmt.Errorf("control: MaxSwitches must be >= 0, got %d", c.MaxSwitches)
	case c.ProbeEvery <= 0:
		return fmt.Errorf("control: ProbeEvery must be positive, got %v", c.ProbeEvery)
	case c.ProbeLoss <= 0 || c.ProbeLoss > 1:
		return fmt.Errorf("control: ProbeLoss must be in (0, 1], got %g", c.ProbeLoss)
	case c.SafeDepthFrac <= 0 || c.SafeDepthFrac > 1:
		return fmt.Errorf("control: SafeDepthFrac must be in (0, 1], got %g", c.SafeDepthFrac)
	case c.PaceWindow <= 0:
		return fmt.Errorf("control: PaceWindow must be positive, got %v", c.PaceWindow)
	}
	return nil
}
