package workload

import (
	"fmt"
	"strings"
	"testing"

	"incastproxy/internal/control"
	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// runOne is a convenience wrapper: one run, returning its RunResult.
func runOne(t *testing.T, spec Spec) RunResult {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Runs[0]
}

// countersOf indexes a snapshot's counter series by name.
func countersOf(s obs.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(s.Counters))
	for _, v := range s.Counters {
		m[v.Name] = v.Value
	}
	return m
}

// An 8 MB incast fits the 17 MB receiver ToR buffer: the controller must
// leave the epoch alone, and the paced start must cost almost nothing
// against the plain baseline.
func TestAdaptiveQuietEpochStaysDirect(t *testing.T) {
	ad := runOne(t, quickSpec(SchemeAdaptive))
	if !ad.Completed {
		t.Fatal("adaptive incast incomplete")
	}
	if len(ad.Steers) != 0 {
		t.Fatalf("quiet epoch should not steer, got %+v", ad.Steers)
	}
	if ad.FinalRoute != "direct" {
		t.Fatalf("final route = %s, want direct", ad.FinalRoute)
	}
	if spec := quickSpec(SchemeAdaptive); ad.FlowFCT.N != spec.Degree || ad.FlowFCT.Max <= 0 || ad.FlowFCT.Max > ad.ICT {
		t.Fatalf("adaptive FlowFCT not populated: %+v (degree %d, ICT %v)", ad.FlowFCT, spec.Degree, ad.ICT)
	}
	base := runOne(t, quickSpec(Baseline))
	slack := 300 * units.Microsecond // pacing release + controller tick grain
	if ad.ICT > base.ICT+slack {
		t.Fatalf("adaptive quiet ICT %v much worse than baseline %v", ad.ICT, base.ICT)
	}
}

// A 40 MB incast announced at the controller overflows the 17 MB buffer
// budget before any queue shows congestion: the controller must steer the
// epoch onto the proxy mid-flight, re-homing un-sent suffixes and keeping a
// buffer-safe subset direct.
func TestAdaptiveSteersMidEpochOnOverflow(t *testing.T) {
	spec := quickSpec(SchemeAdaptive)
	spec.Degree = 8
	spec.TotalBytes = 40 * units.MB
	ad := runOne(t, spec)
	if !ad.Completed {
		t.Fatal("adaptive incast incomplete")
	}
	if len(ad.Steers) == 0 || ad.Steers[0].Action != control.SteerProxy {
		t.Fatalf("expected a steer-proxy decision, got %+v", ad.Steers)
	}
	if ad.Steers[0].Reason != "announced-overflow" {
		t.Fatalf("steer reason = %q, want announced-overflow (notification-driven onset)",
			ad.Steers[0].Reason)
	}
	if ad.RehomedFlows == 0 || ad.RehomedBytes == 0 {
		t.Fatalf("steer moved nothing: %d flows, %v bytes", ad.RehomedFlows, ad.RehomedBytes)
	}
	if ad.KeptDirect == 0 {
		t.Fatalf("partial rebalance kept no flow direct")
	}
	// The mid-epoch switch must be visible in the controller metrics.
	counters := countersOf(ad.Manifest.Metrics)
	if v := counters["control_steer_proxy_total"]; v < 1 {
		t.Fatalf("control_steer_proxy_total missing or zero: %d", v)
	}
	if v := counters["control_onsets_total"]; v < 1 {
		t.Fatalf("control_onsets_total missing or zero: %d", v)
	}

	// It must land in static-streamlined territory, far from the
	// baseline's timeout-dominated collapse.
	st := runOne(t, Spec{Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * units.MB, Seed: spec.Seed})
	base := runOne(t, Spec{Scheme: Baseline, Degree: 8, TotalBytes: 40 * units.MB, Seed: spec.Seed})
	if ad.ICT >= base.ICT {
		t.Fatalf("adaptive %v not better than baseline %v", ad.ICT, base.ICT)
	}
	if float64(ad.ICT) > 1.05*float64(st.ICT) {
		t.Fatalf("adaptive %v more than 5%% worse than static streamlined %v", ad.ICT, st.ICT)
	}
}

// The golden adaptive epochs (the cell and the two stress rows) latch onset
// exactly once and report no decay. On the cross row the flows' announcement
// latches onset on the epoch's first tick, the busy proxy defers the steer,
// and the steer still carries the announced-overflow reason, with a
// detection latency that spans the whole deferral.
func TestAdaptiveOnsetLatchesOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"cell", goldenCell(SchemeAdaptive)},
		{"cross", goldenCross(SchemeAdaptive)},
		{"crash", goldenCrash(SchemeAdaptive)},
	} {
		rr := runOne(t, c.spec)
		counters := countersOf(rr.Manifest.Metrics)
		if v := counters["control_onsets_total"]; v != 1 || rr.OnsetAt == 0 {
			t.Errorf("%s: control_onsets_total = %d, onset at %v; want one onset", c.name, v, rr.OnsetAt)
		}
		if _, ok := counters["control_decays_total"]; ok {
			t.Errorf("%s: control_decays_total is exported", c.name)
		}
		if c.name != "cross" {
			continue
		}
		if len(rr.Steers) == 0 || rr.Steers[0].Action != control.SteerProxy ||
			rr.Steers[0].Reason != "announced-overflow" {
			t.Fatalf("cross: steers = %+v, want an announced-overflow steer-proxy first", rr.Steers)
		}
		latency := rr.Steers[0].At.Sub(rr.OnsetAt)
		if latency != 6400*units.Microsecond {
			t.Errorf("cross: steer at %v, onset at %v: latency %v, want 6.4ms", rr.Steers[0].At, rr.OnsetAt, latency)
		}
		if text, want := rr.Manifest.Metrics.Text(), fmt.Sprintf("\ncontrol_detection_latency_us_sum %d\n", latency/units.Microsecond); !strings.Contains(text, want) {
			t.Errorf("cross: manifest lacks %q", strings.TrimSpace(want))
		}
	}
}

// At the paper's default cell (degree 4, 100 MB, 1 ms) the announced epoch
// overflows the receiver buffer, the controller steers onto the proxy, and
// the proxy stays alive: the epoch must stay there and finish with static
// streamlined. A prober that queued its probes behind a sender's own window
// once read the first late probe as a dead proxy and steered back direct at
// ~3 ms, costing ten times streamlined's ICT.
func TestAdaptiveKeepsLiveProxyAtPaperCell(t *testing.T) {
	if testing.Short() {
		t.Skip("a 100 MB epoch per scheme")
	}
	spec := Spec{Scheme: SchemeAdaptive, Degree: 4, TotalBytes: 100 * units.MB, Runs: 1, Seed: 7}
	ad := runOne(t, spec)
	for _, s := range ad.Steers {
		if s.Action == control.SteerDirect {
			t.Fatalf("steered back direct off a live proxy: %+v", ad.Steers)
		}
	}
	if ad.FinalRoute != "proxy" {
		t.Fatalf("final route = %s, want proxy", ad.FinalRoute)
	}
	spec.Scheme = ProxyStreamlined
	st := runOne(t, spec)
	if float64(ad.ICT) > 1.03*float64(st.ICT) {
		t.Fatalf("adaptive %v more than 3%% slower than static streamlined %v", ad.ICT, st.ICT)
	}
}

// Cross traffic hammering the proxy ToR makes the proxy path the slow one.
// The incast itself fits the receiver buffer, so the right call is to stay
// direct — which the static streamlined scheme cannot do.
func TestAdaptiveAvoidsCongestedProxy(t *testing.T) {
	mk := func(s Scheme) Spec {
		return Spec{
			Scheme:     s,
			Degree:     4,
			TotalBytes: 8 * units.MB,
			Seed:       42,
			CrossTraffic: CrossTrafficSpec{
				Flows: 2,
				Bytes: 40 * units.MB,
			},
			IncastDelay: 2 * units.Millisecond,
		}
	}
	ad := runOne(t, mk(SchemeAdaptive))
	if !ad.Completed {
		t.Fatal("adaptive incast incomplete")
	}
	if ad.FinalRoute != "direct" {
		t.Fatalf("final route = %s, want direct (proxy is congested)", ad.FinalRoute)
	}
	st := runOne(t, mk(ProxyStreamlined))
	if ad.ICT >= st.ICT {
		t.Fatalf("adaptive %v should beat static streamlined %v under proxy cross traffic",
			ad.ICT, st.ICT)
	}
}

// The proxy dies mid-transfer with no restart. The static streamlined scheme
// is stuck behind sender RTOs against a dead host; the adaptive controller
// sees the probe losses within a few probe intervals and steers the epoch
// back onto the direct path, completing the incast.
func TestAdaptiveFailsOverDeadProxy(t *testing.T) {
	spec := quickSpec(SchemeAdaptive)
	spec.Degree = 8
	spec.TotalBytes = 40 * units.MB
	spec.ProxyCrashAt = units.Millisecond
	spec.MaxSimTime = 2 * units.Second
	ad := runOne(t, spec)
	if !ad.Completed {
		t.Fatal("adaptive incast incomplete despite failover")
	}
	var sawBack bool
	for _, s := range ad.Steers {
		if s.Action == control.SteerDirect {
			sawBack = true
		}
	}
	if !sawBack {
		t.Fatalf("expected a steer-direct failover, got %+v", ad.Steers)
	}
	if ad.FinalRoute != "direct" {
		t.Fatalf("final route = %s, want direct after proxy death", ad.FinalRoute)
	}

	// Static streamlined with the same fault can only finish by RTOing
	// into a restarted proxy; without a restart it must not finish.
	st := Spec{Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * units.MB,
		Seed: spec.Seed, ProxyCrashAt: units.Millisecond, MaxSimTime: 2 * units.Second}
	if _, err := Run(st); err == nil {
		t.Fatal("static streamlined should not complete against a dead proxy")
	}
}

// The acceptance sweep: across the §4.1 incast sweep the adaptive policy
// must track the best of {baseline, static streamlined} within 5% at every
// point, and beat static outright on at least one point by switching
// mid-epoch.
func TestAdaptiveSweepTracksBestStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds of wall time")
	}
	type point struct {
		degree int
		total  units.ByteSize
	}
	points := []point{
		{4, 8 * units.MB},   // fits the buffer: direct is fine
		{8, 24 * units.MB},  // moderate overflow
		{8, 40 * units.MB},  // §4.2-style heavy overflow
		{16, 40 * units.MB}, // wide fan-in
	}
	const runs = 3
	p99 := func(s Scheme, p point) (units.Duration, RunResult) {
		res, err := Run(Spec{Scheme: s, Degree: p.degree, TotalBytes: p.total,
			Runs: runs, Seed: 7})
		if err != nil {
			t.Fatalf("%v %+v: %v", s, p, err)
		}
		var worst units.Duration
		for _, rr := range res.Runs {
			if rr.ICT > worst {
				worst = rr.ICT
			}
		}
		return worst, res.Runs[0]
	}
	beatStatic := false
	for _, p := range points {
		ad, first := p99(SchemeAdaptive, p)
		st, _ := p99(ProxyStreamlined, p)
		base, _ := p99(Baseline, p)
		best := st
		if base < best {
			best = base
		}
		if float64(ad) > 1.05*float64(best) {
			t.Errorf("point %+v: adaptive p99 %v exceeds best static %v by more than 5%%",
				p, ad, best)
		}
		if ad < st && len(first.Steers) > 0 {
			beatStatic = true
		}
		t.Logf("point %+v: adaptive %v static %v baseline %v steers %d",
			p, ad, st, base, len(first.Steers))
	}
	if !beatStatic {
		t.Error("adaptive never beat static streamlined via a mid-epoch switch")
	}
}
