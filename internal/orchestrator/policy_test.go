package orchestrator

import (
	"testing"

	"incastproxy/internal/control"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// With a single registered proxy, decentralized sampling must converge on it
// every time regardless of trial count — and report the sampling overhead it
// actually paid, not the pool size.
func TestDecentralizedSingleProxy(t *testing.T) {
	o := New(1)
	only := workload.HostRef{DC: 0, Host: 63}
	o.Register(Proxy{Ref: only, Capacity: 100 * units.Gbps})
	pol := Decentralized{O: o, Trials: 5}
	if pol.Name() != "static-sampled" {
		t.Fatalf("name = %q", pol.Name())
	}
	for i := 0; i < 3; i++ {
		d, err := pol.Decide(bigReq())
		if err != nil {
			t.Fatal(err)
		}
		if !d.UseProxy || d.Proxy != only {
			t.Fatalf("decision %d missed the only proxy: %+v", i, d)
		}
		if d.Probes != 5 {
			t.Fatalf("decision %d probes = %d, want the 5 trials paid", i, d.Probes)
		}
		pol.Release(d.Assignment)
	}
	if active, committed, _ := o.Load(only); active != 0 || committed != 0 {
		t.Fatalf("load not released: active=%d committed=%v", active, committed)
	}
	// The single proxy going down empties the candidate pool.
	o.MarkDown(only)
	if _, err := pol.Decide(bigReq()); err != ErrNoProxies {
		t.Fatalf("down sole proxy: err = %v, want ErrNoProxies", err)
	}
}

// PredictICT must preserve the paper's ordering at every overflow severity:
// once the burst overflows, proxy schemes never predict worse than the
// loss-paying baseline; when it fits, they cost at most the intra hop; and
// predictions grow monotonically with transfer size within each scheme.
func TestPredictICTMonotonicAcrossSchemes(t *testing.T) {
	schemes := []workload.Scheme{workload.Baseline, workload.ProxyNaive, workload.ProxyStreamlined}
	req := bigReq()
	var prev map[workload.Scheme]units.Duration
	for _, bytes := range []units.ByteSize{10 * units.MB, 40 * units.MB, 100 * units.MB, 400 * units.MB} {
		req.Bytes = bytes
		cur := make(map[workload.Scheme]units.Duration, len(schemes))
		for _, s := range schemes {
			cur[s] = PredictICT(s, req)
			if cur[s] <= 0 {
				t.Fatalf("%v @ %v: non-positive prediction %v", s, bytes, cur[s])
			}
			if prev != nil && cur[s] < prev[s] {
				t.Errorf("%v: prediction shrank with size: %v @ %v < %v earlier", s, cur[s], bytes, prev[s])
			}
		}
		bound := cur[workload.Baseline]
		if ok, _ := WorthProxying(req); !ok {
			// No first-RTT loss: the proxy buys nothing and pays the
			// intra-DC relay hop (Figure 2 Right's flat region).
			bound += req.IntraRTT
		}
		for _, s := range schemes[1:] {
			if cur[s] > bound {
				t.Errorf("@ %v: %v predicts %v, worse than baseline bound %v", bytes, s, cur[s], bound)
			}
		}
		prev = cur
	}
	// Once the burst overflows, the baseline must pay a visible penalty.
	req.Bytes = 400 * units.MB
	if PredictICT(workload.Baseline, req) <= PredictICT(workload.ProxyStreamlined, req) {
		t.Error("overflowing baseline should predict strictly worse than streamlined")
	}
}

// An adaptive decision in flight when its proxy dies: Failover must re-home
// the placement onto the surviving proxy, the adaptive policy must route the
// next incast there too, and a proxy with failing probes must be refused
// before the static selector sees the request at all.
func TestFailoverWithAdaptiveDecisionInFlight(t *testing.T) {
	o := New(1)
	p1 := workload.HostRef{DC: 0, Host: 62}
	p2 := workload.HostRef{DC: 0, Host: 63}
	o.Register(Proxy{Ref: p1, Capacity: 100 * units.Gbps})
	o.Register(Proxy{Ref: p2, Capacity: 100 * units.Gbps})
	pol := NewAdaptivePolicy(o, control.DefaultConfig())

	d, err := pol.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseProxy || d.Assignment == 0 {
		t.Fatalf("adaptive should proxy the big incast: %+v", d)
	}
	first := d.Proxy

	// The chosen proxy dies with the placement still in flight.
	reps := o.Failover(first)
	if len(reps) != 1 || reps[0].ID != d.Assignment {
		t.Fatalf("failover replacements = %+v, want the in-flight placement", reps)
	}
	other := p2
	if first == p2 {
		other = p1
	}
	if !reps[0].To.UseProxy || reps[0].To.Proxy != other {
		t.Fatalf("re-home went to %+v, want survivor %v", reps[0].To, other)
	}

	// Subsequent adaptive decisions must avoid the downed proxy.
	d2, err := pol.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d2.UseProxy || d2.Proxy != other {
		t.Fatalf("post-failover decision = %+v, want survivor %v", d2, other)
	}
	pol.Release(reps[0].To.Assignment)
	pol.Release(d2.Assignment)
	if active, committed, _ := o.Load(other); active != 0 || committed != 0 {
		t.Fatalf("survivor load not drained: active=%d committed=%v", active, committed)
	}

	// Probe losses on the proxy path veto proxying entirely, without
	// consulting (or erroring on) the selector.
	for i := 0; i < 30; i++ {
		pol.ProxyEstimator().ObserveLoss(true)
	}
	d3, err := pol.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if d3.UseProxy {
		t.Fatalf("lossy proxy path should force direct: %+v", d3)
	}
}

// The adaptive policy must keep an incast direct when measured queueing
// excess on the proxy path erodes the predicted win below hysteresis.
func TestAdaptivePolicyRespectsMeasuredExcess(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 63}, Capacity: 100 * units.Gbps})
	pol := NewAdaptivePolicy(o, control.DefaultConfig())

	req := bigReq()
	d, err := pol.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseProxy {
		t.Fatalf("idle fabric: expected proxy, got %+v", d)
	}
	pol.Release(d.Assignment)

	// A long queueing excess on the proxy path (busy proxy ToR) makes the
	// intra hop cost more than the baseline's loss recovery saves.
	pol.ProxyEstimator().ObserveRTT(8 * units.Microsecond)
	for i := 0; i < 50; i++ {
		pol.ProxyEstimator().ObserveRTT(400 * units.Millisecond)
	}
	d2, err := pol.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d2.UseProxy {
		t.Fatalf("congested proxy path: expected direct, got %+v", d2)
	}
}

// A relay answering dials with BUSY is alive (probes succeed, zero loss)
// but overloaded; the breaker-fed busy rate must keep new incasts off it
// until the shed rate decays, exactly like probe loss keeps them off a dead
// one.
func TestAdaptivePolicyRefusesSheddingProxy(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 63}, Capacity: 100 * units.Gbps})
	pol := NewAdaptivePolicy(o, control.DefaultConfig())

	// Healthy probes, but every recent dial came back BUSY — the relay
	// breaker's view of sustained admission shedding.
	for i := 0; i < 50; i++ {
		pol.ProxyEstimator().ObserveLoss(false)
		pol.ProxyEstimator().ObserveBusy(true)
	}
	d, err := pol.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if d.UseProxy {
		t.Fatalf("shedding proxy: expected direct, got %+v", d)
	}
	if dials, sheds := pol.ProxyEstimator().Admissions(); dials != 50 || sheds != 50 {
		t.Fatalf("admission accounting: dials=%d sheds=%d", dials, sheds)
	}

	// Admissions resume: the busy EWMA decays and the proxy wins again.
	for i := 0; i < 50; i++ {
		pol.ProxyEstimator().ObserveBusy(false)
	}
	d2, err := pol.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d2.UseProxy {
		t.Fatalf("recovered proxy: expected proxy, got %+v", d2)
	}
	pol.Release(d2.Assignment)
}
