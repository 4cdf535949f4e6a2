package control

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

func TestEWMAHalfLife(t *testing.T) {
	m := NewEWMA(100 * units.Microsecond)
	m.Observe(0, 0)
	// One half-life after a step to 100, the EWMA must sit at the
	// midpoint.
	m.Observe(units.Time(100*units.Microsecond), 100)
	if v := m.Value(); v < 49.9 || v > 50.1 {
		t.Fatalf("after one half-life: %v, want 50", v)
	}
	// Much later the EWMA converges onto the input.
	m.Observe(units.Time(2*units.Millisecond), 100)
	if v := m.Value(); v < 99.9 {
		t.Fatalf("after 19 half-lives: %v, want ~100", v)
	}
}

func TestEWMASameInstantBlends(t *testing.T) {
	m := NewEWMA(units.Millisecond)
	m.Observe(0, 0)
	m.Observe(0, 100)
	if v := m.Value(); v != 50 {
		t.Fatalf("same-instant blend: %v, want 50", v)
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewRate(100 * units.Microsecond)
	// 10 events per 100us = 100k/sec, sustained.
	var count uint64
	for i := 1; i <= 50; i++ {
		count += 10
		r.Observe(units.Time(i)*units.Time(100*units.Microsecond), count)
	}
	if v := r.Value(); v < 90_000 || v > 110_000 {
		t.Fatalf("sustained rate: %v, want ~100k/sec", v)
	}
	// Counter going quiet decays the rate toward zero.
	for i := 51; i <= 120; i++ {
		r.Observe(units.Time(i)*units.Time(100*units.Microsecond), count)
	}
	if v := r.Value(); v > 1000 {
		t.Fatalf("quiet rate: %v, want ~0", v)
	}
}

// buildLink wires two hosts with one saturable link for signal tests.
func buildLink(qc netsim.QueueConfig) (*sim.Engine, *netsim.Host, *netsim.Host, *netsim.Port) {
	e := sim.New()
	a := netsim.NewHost(1, "a")
	b := netsim.NewHost(2, "b")
	pa, _ := netsim.Connect(a, b, 100*units.Gbps, units.Microsecond, qc, qc, rng.New(7))
	return e, a, b, pa
}

func TestQueueSignalTracksDepthAndMarks(t *testing.T) {
	e, a, b, port := buildLink(netsim.QueueConfig{
		Capacity: 10 * units.MB, MarkLow: 10 * units.KB, MarkHigh: 50 * units.KB,
	})
	sig := WatchPort("a->b", port, 100*units.Microsecond)
	sig.Sample(0) // prime the rate estimators before the burst
	// Blast 2MB into the 100Gbps link at t=0: the queue backs up.
	for i := 0; i < 1400; i++ {
		p := a.NewPacket()
		p.Flow = 5
		p.Kind = netsim.Data
		p.Seq = int64(i)
		p.Size = 1500
		p.FullSize = 1500
		p.Dst = b.ID()
		a.Send(e, p)
	}
	e.Schedule(units.Time(10*units.Microsecond), func(e *sim.Engine) { sig.Sample(e.Now()) })
	e.RunUntil(units.Time(11 * units.Microsecond))
	if sig.RawDepth() == 0 {
		t.Fatal("queue depth signal saw nothing during a 2MB blast")
	}
	if !sig.Congested(100*units.KB, 0) {
		t.Fatalf("blast of 2MB not congested at 100KB threshold (depth %v)", sig.RawDepth())
	}
	if sig.MarkRate.Value() == 0 {
		t.Fatal("ECN marks above MarkHigh produced no mark-rate signal")
	}
}

func TestDetectorHysteresis(t *testing.T) {
	cfg := DetectorConfig{
		OnsetDepth: 1 * units.MB,
		DecayDepth: 100 * units.KB,
		MinDwell:   100 * units.Microsecond,
	}
	d := NewDetector(cfg)
	sig := &QueueSignal{
		Depth:    NewEWMA(50 * units.Microsecond),
		MarkRate: NewRate(50 * units.Microsecond),
		TrimRate: NewRate(50 * units.Microsecond),
		DropRate: NewRate(50 * units.Microsecond),
	}
	at := func(us int64) units.Time { return units.Time(us) * units.Time(units.Microsecond) }

	// Below onset: stays quiet.
	sig.raw = 500 * units.KB
	sig.Depth.Observe(at(10), float64(sig.raw))
	if d.Step(at(10), sig) || d.Phase() != Quiet {
		t.Fatal("onset below threshold")
	}
	// Depth crosses onset — but dwell blocks an immediate transition at
	// the same instant the detector was created... step at a later time.
	sig.raw = 2 * units.MB
	sig.Depth.Observe(at(150), float64(sig.raw))
	if !d.Step(at(150), sig) || d.Phase() != Incast {
		t.Fatal("no onset at 2x threshold")
	}
	if d.Onsets() != 1 {
		t.Fatalf("onsets = %d, want 1", d.Onsets())
	}
	// Still above decay: stays in incast.
	sig.raw = 500 * units.KB
	for us := int64(160); us < 400; us += 20 {
		sig.Depth.Observe(at(us), float64(sig.raw))
		d.Step(at(us), sig)
	}
	if d.Phase() != Incast {
		t.Fatal("decayed above the decay threshold")
	}
	// Drain to zero: decay fires only after the EWMA catches down and
	// the dwell passes.
	sig.raw = 0
	for us := int64(400); us < 2000; us += 20 {
		sig.Depth.Observe(at(us), 0)
		d.Step(at(us), sig)
	}
	if d.Phase() != Quiet || d.Decays() != 1 {
		t.Fatalf("no decay after drain: phase=%v decays=%d", d.Phase(), d.Decays())
	}
}

func TestDetectorForceOnset(t *testing.T) {
	d := NewDetector(DetectorConfig{OnsetDepth: units.MB, MinDwell: units.Millisecond})
	if !d.ForceOnset(units.Time(5 * units.Microsecond)) {
		t.Fatal("force onset on quiet detector failed")
	}
	if d.ForceOnset(units.Time(6 * units.Microsecond)) {
		t.Fatal("force onset while already in incast reported a transition")
	}
	if d.Phase() != Incast || d.Onsets() != 1 {
		t.Fatalf("phase=%v onsets=%d", d.Phase(), d.Onsets())
	}
}

func TestPathEstimator(t *testing.T) {
	pe := NewPathEstimator("direct", 0)
	if !pe.Healthy(0.5) {
		t.Fatal("unprobed path must be presumed healthy")
	}
	pe.ObserveRTT(4 * units.Millisecond)
	pe.ObserveRTT(4 * units.Millisecond)
	for i := 0; i < 40; i++ {
		pe.ObserveRTT(6 * units.Millisecond) // congestion: +2ms queueing
	}
	if got := pe.MinRTT(); got != 4*units.Millisecond {
		t.Fatalf("min RTT %v, want 4ms", got)
	}
	if ex := pe.Excess(); ex < 1500*units.Microsecond || ex > 2100*units.Microsecond {
		t.Fatalf("excess %v, want ~2ms", ex)
	}
	for i := 0; i < 20; i++ {
		pe.ObserveLoss(true)
	}
	if pe.Healthy(0.5) {
		t.Fatal("path with 100% recent probe loss still healthy")
	}
	sent, lost := pe.Probes()
	if sent != 20 || lost != 20 {
		t.Fatalf("probes = %d/%d, want 20/20", lost, sent)
	}
}

func TestPathEstimatorNilSafe(t *testing.T) {
	var pe *PathEstimator
	pe.ObserveRTT(units.Millisecond)
	pe.ObserveLoss(true)
	if pe.RTT() != 0 || pe.LossRate() != 0 || !pe.Healthy(0.1) {
		t.Fatal("nil estimator must read as zero and healthy")
	}
}

func TestConfigParseDefaultsAndOverrides(t *testing.T) {
	def, err := ParseConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if def != DefaultConfig() {
		t.Fatalf("empty parse differs from defaults: %+v", def)
	}
	c, err := ParseConfig("adaptive:onset-depth=4MB, min-dwell=200us ,max-switches=1,probe-loss=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if c.OnsetDepth != 4*units.MB || c.MinDwell != 200*units.Microsecond ||
		c.MaxSwitches != 1 || c.ProbeLoss != 0.25 {
		t.Fatalf("overrides not applied: %+v", c)
	}
	// Untouched keys keep their defaults.
	if c.SamplePeriod != DefaultConfig().SamplePeriod {
		t.Fatalf("sample period clobbered: %v", c.SamplePeriod)
	}
}

func TestConfigParseRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"onset-depth",               // not key=value
		"no-such-knob=1",            // unknown key
		"onset-depth=-4MB",          // negative size
		"min-dwell=7",               // unitless duration
		"probe-loss=2",              // out of range
		"decay-depth=9MB",           // >= onset depth (default 2MB)
		"hysteresis=0.5",            // < 1
		"max-switches=googol",       // not an int
		"sample-period=0s",          // must be positive
		"safe-depth-frac=0",         // out of range
		"onset-mark-rate=-1",        // negative rate
		"onset-depth=2MB,,min-dwel", // trailing garbage key
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestConfigStringRoundTrips(t *testing.T) {
	c := DefaultConfig()
	c.OnsetDepth = 3 * units.MB
	c.MaxSwitches = 5
	c.ProbeLoss = 0.3
	got, err := ParseConfig(c.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", c.String(), err)
	}
	if got != c {
		t.Fatalf("round trip changed the config:\n in: %+v\nout: %+v", c, got)
	}
}

// TestControllerSteersOnAnnouncedOverflow drives the policy engine directly:
// announced flows exceeding the overflow budget must produce exactly one
// steer-proxy decision (MaxSwitches=1 honored, dwell preventing flapping).
func TestControllerSteersOnAnnouncedOverflow(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.OverflowBytes = 10 * units.MB
	cfg.MaxSwitches = 1
	reg := obs.NewRegistry()
	c := NewController(cfg, reg)

	var got []Action
	c.OnSteer(func(e *sim.Engine, a Action, reason string) bool {
		got = append(got, a)
		if reason != "announced-overflow" {
			t.Errorf("reason %q, want announced-overflow", reason)
		}
		return true
	})
	for i := 0; i < 8; i++ {
		c.FlowStarted(2 * units.MB) // 16MB total > 10MB budget
	}
	c.Start(e, units.Time(5*units.Millisecond))
	e.RunUntil(units.Time(5 * units.Millisecond))

	if len(got) != 1 || got[0] != SteerProxy {
		t.Fatalf("steers = %v, want exactly one steer-proxy", got)
	}
	if c.Route() != RouteProxy || c.Switches() != 1 {
		t.Fatalf("route=%v switches=%d", c.Route(), c.Switches())
	}
	snap := reg.Snapshot()
	if v, _ := snap.Get("control_steer_proxy_total"); v != 1 {
		t.Fatalf("control_steer_proxy_total = %d, want 1", v)
	}
	if v, _ := snap.Get("control_onsets_total"); v != 1 {
		t.Fatalf("control_onsets_total = %d, want 1", v)
	}
}

// TestControllerVetoKeepsRetrying: a vetoed steer must not consume a switch.
func TestControllerVetoKeepsRetrying(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.OverflowBytes = units.MB
	cfg.MaxSwitches = 1
	c := NewController(cfg, nil)
	vetoes := 0
	c.OnSteer(func(e *sim.Engine, a Action, reason string) bool {
		vetoes++
		return vetoes > 3 // veto the first three attempts
	})
	c.FlowStarted(2 * units.MB)
	c.Start(e, units.Time(units.Millisecond))
	e.RunUntil(units.Time(units.Millisecond))
	if vetoes != 4 {
		t.Fatalf("steer attempts = %d, want 4 (3 vetoes + 1 executed)", vetoes)
	}
	if c.Switches() != 1 || c.Route() != RouteProxy {
		t.Fatalf("switches=%d route=%v", c.Switches(), c.Route())
	}
}

// TestControllerAvoidsDegradedProxy: a proxy with high probe loss must veto
// the upgrade, then recovery must allow it.
func TestControllerAvoidsDegradedProxy(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.OverflowBytes = units.MB
	c := NewController(cfg, nil)
	steers := 0
	c.OnSteer(func(e *sim.Engine, a Action, reason string) bool { steers++; return true })
	c.FlowStarted(2 * units.MB)
	for i := 0; i < 20; i++ {
		c.ProxyEstimator().ObserveLoss(true)
	}
	c.Start(e, units.Time(200*units.Microsecond))
	e.RunUntil(units.Time(200 * units.Microsecond))
	if steers != 0 {
		t.Fatalf("steered onto a proxy with 100%% probe loss (%d steers)", steers)
	}
	// Probes recover: the deferred steer goes through.
	for i := 0; i < 60; i++ {
		c.ProxyEstimator().ObserveLoss(false)
	}
	e2 := sim.New()
	c2 := NewController(cfg, nil)
	c2.OnSteer(func(e *sim.Engine, a Action, reason string) bool { steers++; return true })
	c2.FlowStarted(2 * units.MB)
	c2.Start(e2, units.Time(200*units.Microsecond))
	e2.RunUntil(units.Time(200 * units.Microsecond))
	if steers != 1 {
		t.Fatalf("healthy proxy not steered onto (%d steers)", steers)
	}
}

// TestControllerSteersBackOffDeadProxy: once routed via the proxy, probe
// losses must trigger the downgrade to direct.
func TestControllerSteersBackOffDeadProxy(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.OverflowBytes = units.MB
	c := NewController(cfg, nil)
	var acts []Action
	c.OnSteer(func(e *sim.Engine, a Action, reason string) bool {
		acts = append(acts, a)
		if a == SteerProxy {
			// The moment we land on the proxy, it dies.
			e.Schedule(e.Now().Add(200*units.Microsecond), func(e *sim.Engine) {
				for i := 0; i < 30; i++ {
					c.ProxyEstimator().ObserveLoss(true)
				}
			})
		}
		return true
	})
	c.FlowStarted(2 * units.MB)
	c.Start(e, units.Time(2*units.Millisecond))
	e.RunUntil(units.Time(2 * units.Millisecond))
	if len(acts) != 2 || acts[0] != SteerProxy || acts[1] != SteerDirect {
		t.Fatalf("actions = %v, want [steer-proxy steer-direct]", acts)
	}
	if c.Route() != RouteDirect {
		t.Fatalf("route = %v, want direct", c.Route())
	}
}

// TestProberMeasuresPath: probes over a real simulated link must measure the
// propagation RTT and count no losses; taking the echoing host down must turn
// every probe into a loss.
func TestProberMeasuresPath(t *testing.T) {
	e, a, b, _ := buildLink(netsim.QueueConfig{Capacity: 10 * units.MB})
	est := NewPathEstimator("test", 0)
	BindEcho(b, ProbeFlowBase)
	pr := NewProber(a, b.ID(), ProbeFlowBase, est, 100*units.Microsecond,
		units.Millisecond, rng.New(3))
	pr.Start(e, units.Time(30*units.Millisecond))
	e.RunUntil(units.Time(10 * units.Millisecond))

	if est.RTTSamples() < 50 {
		t.Fatalf("only %d RTT samples over 10ms at 100us cadence", est.RTTSamples())
	}
	// 2x 1us propagation + 2x 64B serialization: ~2us.
	if rtt := est.RTT(); rtt < 2*units.Microsecond || rtt > 4*units.Microsecond {
		t.Fatalf("probe RTT %v, want ~2us", rtt)
	}
	if !est.Healthy(0.5) {
		t.Fatalf("healthy path unhealthy: loss=%v", est.LossRate())
	}

	// Cut the path: the estimator must go unhealthy.
	b.SetDown(true)
	e.RunUntil(units.Time(30 * units.Millisecond))
	if est.Healthy(0.5) {
		t.Fatalf("cut path still healthy: loss=%v", est.LossRate())
	}
}
