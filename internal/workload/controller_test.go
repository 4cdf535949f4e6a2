package workload

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

func TestEWMAHalfLife(t *testing.T) {
	var r markRate
	r.observe(0, 0)
	r.observe(units.Time(100*units.Microsecond), 0) // the average starts at 0
	// One half-life after a step to 1M marks/s, the average must sit at the
	// midpoint.
	r.observe(units.Time(200*units.Microsecond), 100)
	if v := r.value; v < 499_000 || v > 501_000 {
		t.Fatalf("after one half-life: %v, want 500k", v)
	}
	// Much later the average converges onto the input.
	r.observe(units.Time(2*units.Millisecond), 1900)
	if v := r.value; v < 999_000 {
		t.Fatalf("after 18 more half-lives: %v, want ~1M", v)
	}
}

func TestRateEstimator(t *testing.T) {
	var r markRate
	// 10 events per 100us = 100k/sec, sustained.
	var count uint64
	for i := 1; i <= 50; i++ {
		count += 10
		r.observe(units.Time(i)*units.Time(100*units.Microsecond), count)
	}
	if v := r.value; v < 90_000 || v > 110_000 {
		t.Fatalf("sustained rate: %v, want ~100k/sec", v)
	}
	// Counter going quiet decays the rate toward zero.
	for i := 51; i <= 120; i++ {
		r.observe(units.Time(i)*units.Time(100*units.Microsecond), count)
	}
	if v := r.value; v > 1000 {
		t.Fatalf("quiet rate: %v, want ~0", v)
	}
}

// buildLink wires two hosts with one saturable link for signal tests.
func buildLink(rate units.BitRate, qc netsim.QueueConfig) (*sim.Engine, *netsim.Host, *netsim.Host, *netsim.Port) {
	e := sim.New()
	a := netsim.NewHost(1, "a")
	b := netsim.NewHost(2, "b")
	pa, _ := netsim.Connect(a, b, rate, units.Microsecond, qc, qc, rng.New(7))
	return e, a, b, pa
}

// idlePort is a port that carries nothing: a watched queue that stays empty.
func idlePort() *netsim.Port {
	_, _, _, p := buildLink(100*units.Gbps, netsim.QueueConfig{Capacity: 10 * units.MB})
	return p
}

// acted is a steer function that always moves something.
func acted(*sim.Engine, action, string) bool { return true }

// fill sends bytes of data from a to b at the engine's current instant, in
// 1500 B packets and one remainder.
func fill(e *sim.Engine, a, b *netsim.Host, bytes units.ByteSize) {
	for seq := int64(0); bytes > 0; seq++ {
		p := a.NewPacket()
		p.Flow = 5
		p.Kind = netsim.Data
		p.Seq = seq
		p.Size = min(bytes, 1500)
		p.FullSize = p.Size
		p.Dst = b.ID()
		a.Send(e, p)
		bytes -= p.Size
	}
}

// blast is a 2.1 MB fill: on a 100 Gbps buildLink the queue backs up and
// drains in ~170us.
const blast = 2_100_000

func TestQueueSignalTracksDepthAndMarks(t *testing.T) {
	e, a, b, port := buildLink(100*units.Gbps, netsim.QueueConfig{
		Capacity: 10 * units.MB, MarkLow: 10 * units.KB, MarkHigh: 50 * units.KB,
	})
	c := newController(10*units.MB, nil, nil, idlePort(), port, acted)
	c.sample(0) // prime the rate estimator before the burst
	fill(e, a, b, blast)
	e.Schedule(units.Time(10*units.Microsecond), func(e *sim.Engine) { c.sample(e.Now()) })
	e.RunUntil(units.Time(11 * units.Microsecond))
	if c.proxyDepth == 0 {
		t.Fatal("queue depth signal saw nothing during a 2MB blast")
	}
	if c.proxyDepth < 100*units.KB {
		t.Fatalf("blast of 2MB not congested at 100KB threshold (depth %v)", c.proxyDepth)
	}
	if c.proxyMarks.value == 0 {
		t.Fatal("ECN marks above MarkHigh produced no mark-rate signal")
	}
}

func TestPathEstimator(t *testing.T) {
	var pe pathEstimator
	if !pe.healthy(0.5) {
		t.Fatal("unprobed path must be presumed healthy")
	}
	for i := 0; i < 20; i++ {
		pe.observeLoss(true)
	}
	if pe.healthy(0.5) {
		t.Fatal("path with 100% recent probe loss still healthy")
	}
	sent, lost := pe.probes()
	if sent != 20 || lost != 20 {
		t.Fatalf("probes = %d/%d, want 20/20", lost, sent)
	}
}

// TestPathEstimatorOneLossIsNotDown: the loss EWMA starts at zero, not at
// the first outcome, so a single late probe with no history behind it leaves
// the path healthy; only a run of losses takes it down (0.2, 0.36, 0.488,
// 0.5904 at the default gain).
func TestPathEstimatorOneLossIsNotDown(t *testing.T) {
	var pe pathEstimator
	pe.observeLoss(true)
	if !pe.healthy(0.5) {
		t.Fatalf("one lost probe took the path down: loss=%v", pe.lossRate())
	}
	for i := 0; i < 3; i++ {
		pe.observeLoss(true)
	}
	if pe.healthy(0.5) {
		t.Fatalf("four consecutive lost probes left the path healthy: loss=%v", pe.lossRate())
	}
}

func TestPathEstimatorNilSafe(t *testing.T) {
	var pe *pathEstimator
	pe.observeLoss(true)
	if pe.lossRate() != 0 || !pe.healthy(0.1) {
		t.Fatal("nil estimator must read as zero and healthy")
	}
}

// TestControllerOnsetDepthFromBuffer pins the queue-depth arm on the §4.1
// receiver ToR buffer: with no announcements, onset latches at a receiver
// depth of 7/10 of 17,015,000 B, 11,910,500 B, and not one byte below.
func TestControllerOnsetDepthFromBuffer(t *testing.T) {
	for _, c := range []struct {
		depth units.ByteSize
		onset bool
	}{
		{11_910_500, true},
		{11_910_499, false},
	} {
		// At 1 Mb/s the link serializes nothing within the first tick, so
		// the sampled depth is every byte behind the packet on the wire.
		e, a, b, port := buildLink(units.Mbps, netsim.QueueConfig{Capacity: 20 * units.MB})
		fill(e, a, b, netsim.ControlSize) // the packet on the wire
		fill(e, a, b, c.depth)
		ctrl := newController(17_015_000, nil, nil, port, idlePort(), acted)
		ctrl.start(e, units.Time(samplePeriod))
		e.RunUntil(units.Time(samplePeriod))

		if ctrl.recvDepth != c.depth {
			t.Fatalf("sampled depth %d, want %d", ctrl.recvDepth, c.depth)
		}
		if got := ctrl.onsetAt == units.Time(samplePeriod); got != c.onset {
			t.Errorf("depth %d: onset latched on the first tick = %v, want %v", c.depth, got, c.onset)
		}
	}
}

// TestControllerSteersOnAnnouncedOverflow drives the policy engine directly:
// announced flows exceeding the overflow budget must produce exactly one
// steer-proxy decision: a healthy proxy is never steered back off, so the
// switch budget left over is never spent.
func TestControllerSteersOnAnnouncedOverflow(t *testing.T) {
	e := sim.New()
	reg := obs.NewRegistry()
	var got []action
	c := newController(10*units.MB, reg, nil, idlePort(), idlePort(), func(e *sim.Engine, a action, reason string) bool {
		got = append(got, a)
		if reason != "announced-overflow" {
			t.Errorf("reason %q, want announced-overflow", reason)
		}
		return true
	})
	for i := 0; i < 8; i++ {
		c.flowStarted(2 * units.MB) // 16MB total > 10MB budget
	}
	c.start(e, units.Time(5*units.Millisecond))
	e.RunUntil(units.Time(5 * units.Millisecond))

	if len(got) != 1 || got[0] != steerProxy {
		t.Fatalf("steers = %v, want exactly one steer-proxy", got)
	}
	if c.route != routeProxy || c.switches != 1 {
		t.Fatalf("route=%v switches=%d", c.route, c.switches)
	}
	if v := reg.Counter("control_steer_proxy_total").Load(); v != 1 {
		t.Fatalf("control_steer_proxy_total = %d, want 1", v)
	}
	if v := reg.Counter("control_onsets_total").Load(); v != 1 {
		t.Fatalf("control_onsets_total = %d, want 1", v)
	}
}

// TestControllerLatchesQueueOnset drives the queue-depth rule: with no
// announcements, a burst past onsetDepth into the watched receiver queue
// latches onset once, on the first tick, with reason queue-onset. The latch
// outlives the burst: a steer vetoed until the queue has drained still goes
// to the proxy afterwards, and its detection latency is timed from the onset.
func TestControllerLatchesQueueOnset(t *testing.T) {
	e, a, b, port := buildLink(100*units.Gbps, netsim.QueueConfig{Capacity: 10 * units.MB})
	reg := obs.NewRegistry()
	drained := units.Time(500 * units.Microsecond)
	c := newController(units.MB, reg, nil, port, idlePort(), func(e *sim.Engine, a action, reason string) bool {
		if reason != "queue-onset" {
			t.Errorf("reason %q, want queue-onset", reason)
		}
		return e.Now() >= drained
	})
	fill(e, a, b, blast)
	c.start(e, units.Time(units.Millisecond))
	e.RunUntil(units.Time(units.Millisecond))

	if c.recvDepth != 0 {
		t.Fatalf("queue still holds %v at the end", c.recvDepth)
	}
	if at := c.onsetAt; at != units.Time(samplePeriod) {
		t.Fatalf("onset at %v, want the first tick (%v)", at, samplePeriod)
	}
	steers := c.steers
	if len(steers) != 1 || steers[0] != (Steer{At: drained, Action: steerProxy, Reason: "queue-onset"}) {
		t.Fatalf("steers = %v, want one queue-onset steer-proxy at %v", steers, drained)
	}
	if v := reg.Counter("control_onsets_total").Load(); v != 1 {
		t.Fatalf("control_onsets_total = %d, want 1", v)
	}
	lat := reg.Histogram("control_detection_latency_us", nil)
	if want := int64(drained.Sub(c.onsetAt) / units.Microsecond); lat.Count() != 1 || lat.Sum() != want {
		t.Fatalf("control_detection_latency_us: count=%d sum=%d, want 1/%d", lat.Count(), lat.Sum(), want)
	}
}

// TestControllerVetoKeepsRetrying: a vetoed steer must not consume a switch.
func TestControllerVetoKeepsRetrying(t *testing.T) {
	e := sim.New()
	vetoes := 0
	c := newController(units.MB, nil, nil, idlePort(), idlePort(), func(e *sim.Engine, a action, reason string) bool {
		vetoes++
		return vetoes > 3 // veto the first three attempts
	})
	c.flowStarted(2 * units.MB)
	c.start(e, units.Time(units.Millisecond))
	e.RunUntil(units.Time(units.Millisecond))
	if vetoes != 4 {
		t.Fatalf("steer attempts = %d, want 4 (3 vetoes + 1 executed)", vetoes)
	}
	if c.switches != 1 || c.route != routeProxy {
		t.Fatalf("switches=%d route=%v", c.switches, c.route)
	}
}

// TestControllerAvoidsDegradedProxy: a proxy with high probe loss must veto
// the upgrade, then recovery must allow it.
func TestControllerAvoidsDegradedProxy(t *testing.T) {
	e := sim.New()
	steers := 0
	count := func(*sim.Engine, action, string) bool { steers++; return true }
	c := newController(units.MB, nil, nil, idlePort(), idlePort(), count)
	c.flowStarted(2 * units.MB)
	for i := 0; i < 20; i++ {
		c.proxy.observeLoss(true)
	}
	c.start(e, units.Time(200*units.Microsecond))
	e.RunUntil(units.Time(200 * units.Microsecond))
	if steers != 0 {
		t.Fatalf("steered onto a proxy with 100%% probe loss (%d steers)", steers)
	}
	// Probes recover: the deferred steer goes through.
	for i := 0; i < 60; i++ {
		c.proxy.observeLoss(false)
	}
	e2 := sim.New()
	c2 := newController(units.MB, nil, nil, idlePort(), idlePort(), count)
	c2.flowStarted(2 * units.MB)
	c2.start(e2, units.Time(200*units.Microsecond))
	e2.RunUntil(units.Time(200 * units.Microsecond))
	if steers != 1 {
		t.Fatalf("healthy proxy not steered onto (%d steers)", steers)
	}
}

// TestControllerSteersBackOffDeadProxy: once routed via the proxy, probe
// losses must trigger the downgrade to direct.
func TestControllerSteersBackOffDeadProxy(t *testing.T) {
	e := sim.New()
	var c *controller
	var acts []action
	c = newController(units.MB, nil, nil, idlePort(), idlePort(), func(e *sim.Engine, a action, reason string) bool {
		acts = append(acts, a)
		if a == steerProxy {
			// The moment we land on the proxy, it dies.
			e.Schedule(e.Now().Add(200*units.Microsecond), func(e *sim.Engine) {
				for i := 0; i < 30; i++ {
					c.proxy.observeLoss(true)
				}
			})
		}
		return true
	})
	c.flowStarted(2 * units.MB)
	c.start(e, units.Time(2*units.Millisecond))
	e.RunUntil(units.Time(2 * units.Millisecond))
	if len(acts) != 2 || acts[0] != steerProxy || acts[1] != steerDirect {
		t.Fatalf("actions = %v, want [steer-proxy steer-direct]", acts)
	}
	if c.route != routeDirect {
		t.Fatalf("route = %v, want direct", c.route)
	}
}

// TestProberChecksLiveness: probes over a real simulated link that the echo
// host answers count no loss; taking the echoing host down must turn every
// probe into a loss.
func TestProberChecksLiveness(t *testing.T) {
	e, a, b, _ := buildLink(100*units.Gbps, netsim.QueueConfig{Capacity: 10 * units.MB})
	var est pathEstimator
	bindEcho(b)
	pr := newProber(a, b.ID(), &est, 100*units.Microsecond, units.Millisecond, rng.New(3))
	pr.start(e, units.Time(30*units.Millisecond))
	e.RunUntil(units.Time(10 * units.Millisecond))

	sent, lost := est.probes()
	if sent < 50 || lost != 0 {
		t.Fatalf("answered path: %d probe outcomes, %d lost over 10ms at 100us cadence; want >= 50, 0", sent, lost)
	}
	if !est.healthy(0.5) {
		t.Fatalf("healthy path unhealthy: loss=%v", est.lossRate())
	}

	// Cut the path: every probe from here on is a loss, and the estimator
	// must go unhealthy.
	b.SetDown(true)
	e.RunUntil(units.Time(30 * units.Millisecond))
	sent2, lost2 := est.probes()
	if lost2 == 0 || sent2-sent != lost2 {
		t.Fatalf("cut path: %d outcomes since the cut, %d lost; want all lost", sent2-sent, lost2)
	}
	if est.healthy(0.5) {
		t.Fatalf("cut path still healthy: loss=%v", est.lossRate())
	}
}

// The controller ticks every ~20us of virtual time; its per-tick cost is a
// hot-path budget exactly like the obs instruments'.

// BenchmarkEWMAObserve is the smoothing step over irregular rates.
func BenchmarkEWMAObserve(b *testing.B) {
	var r markRate
	var count uint64
	for i := 0; i < b.N; i++ {
		count += uint64(i & 1023)
		r.observe(units.Time(i)*units.Time(units.Microsecond), count)
	}
}

func BenchmarkRateObserve(b *testing.B) {
	var r markRate
	for i := 0; i < b.N; i++ {
		r.observe(units.Time(i)*units.Time(units.Microsecond), uint64(i)*3)
	}
}
