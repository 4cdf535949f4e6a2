package orchestrator

import (
	"testing"

	"incastproxy/internal/model"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// bigReq is an incast that clearly benefits from proxying: 100 MB over a
// 4 ms / 100 Gb/s path against a 17 MB buffer.
func bigReq() Request {
	return Request{
		Degree:      8,
		Bytes:       100 * units.MB,
		SenderDC:    0,
		InterRTT:    4 * units.Millisecond,
		IntraRTT:    8 * units.Microsecond,
		Rate:        100 * units.Gbps,
		BufferBytes: 17 * units.MB,
	}
}

func TestWorthProxyingLargeIncast(t *testing.T) {
	ok, reason := WorthProxying(bigReq())
	if !ok {
		t.Fatalf("large incast should be proxied: %s", reason)
	}
}

func TestWorthProxyingSmallIncast(t *testing.T) {
	// Figure 2 (Right): a 20 MB degree-4 incast sees no first-RTT loss
	// ("all three schemes are on par and there is no benefit using a
	// proxy").
	req := bigReq()
	req.Degree = 4
	req.Bytes = 20 * units.MB
	ok, reason := WorthProxying(req)
	if ok {
		t.Fatalf("20MB/degree-4 incast should not be proxied (%s)", reason)
	}
	// A lone sender can never overload via aggregate burst.
	req.Degree = 1
	req.Bytes = 100 * units.MB
	if ok, _ := WorthProxying(req); ok {
		t.Fatal("degree-1 flow should not be proxied")
	}
}

// Above the spine count the fan-in, not the degree, bounds how fast a burst
// lands on the receiver ToR. WorthProxying must take the model's answer, the
// one model.PredictICT gives: 18.5 MB from 32 senders
// queues 7/8 of itself (16.2 MB, fits), not 31/32 (17.9 MB, overflows).
func TestWorthProxyingAgreesWithModelAboveSpineCount(t *testing.T) {
	req := bigReq()
	req.Degree = 32
	for _, tc := range []struct {
		bytes units.ByteSize
		want  bool
	}{{18500 * units.KB, false}, {40 * units.MB, true}} {
		req.Bytes = tc.bytes
		ok, reason := WorthProxying(req)
		overflow := model.Predict(modelParams(workload.Baseline, req)).Regime == model.RegimeOverflow
		if ok != tc.want || ok != overflow {
			t.Errorf("%v: WorthProxying = %v (%s), model overflow regime = %v, want both %v",
				tc.bytes, ok, reason, overflow, tc.want)
		}
	}
}

func TestWorthProxyingNoLatencyGap(t *testing.T) {
	// Figure 3: with inter ~ intra there is nothing to win.
	req := bigReq()
	req.InterRTT = 20 * units.Microsecond
	req.IntraRTT = 8 * units.Microsecond
	if ok, _ := WorthProxying(req); ok {
		t.Fatal("no latency gap -> no proxy")
	}
}

func TestDecideNoProxyRegistered(t *testing.T) {
	o := New(1)
	if _, err := o.Decide(bigReq()); err != ErrNoProxies {
		t.Fatalf("err = %v", err)
	}
}

func TestDecidePicksLeastLoaded(t *testing.T) {
	o := New(1)
	p1 := Proxy{Ref: workload.HostRef{DC: 0, Host: 60}, Capacity: 100 * units.Gbps}
	p2 := Proxy{Ref: workload.HostRef{DC: 0, Host: 61}, Capacity: 100 * units.Gbps}
	o.Register(p1)
	o.Register(p2)

	d1, err := o.Decide(bigReq())
	if err != nil || !d1.UseProxy {
		t.Fatalf("d1 = %+v err %v", d1, err)
	}
	d2, err := o.Decide(bigReq())
	if err != nil {
		t.Fatal(err)
	}
	if d1.Proxy == d2.Proxy {
		t.Fatal("second incast should land on the other (less loaded) proxy")
	}
	// Releasing p1's load steers the next incast back to it.
	o.Complete(d1.Proxy, bigReq().Bytes)
	d3, _ := o.Decide(bigReq())
	if d3.Proxy != d1.Proxy {
		t.Fatalf("after release, expected %v, got %v", d1.Proxy, d3.Proxy)
	}
}

func TestDecideIgnoresOtherDCProxies(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 1, Host: 0}, Capacity: 100 * units.Gbps})
	if _, err := o.Decide(bigReq()); err != ErrNoProxies {
		t.Fatal("proxy must be in the sending datacenter")
	}
}

func TestDecideSmallIncastBypassesProxy(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 60}, Capacity: 100 * units.Gbps})
	req := bigReq()
	req.Bytes = units.MB
	d, err := o.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.UseProxy {
		t.Fatal("small incast must go direct")
	}
	if active, committed, _ := o.Load(workload.HostRef{DC: 0, Host: 60}); active != 0 || committed != 0 {
		t.Fatal("bypass must not consume proxy capacity")
	}
}

func TestDecideDefaultSchemeStreamlined(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 60}})
	d, _ := o.Decide(bigReq())
	if d.Scheme != workload.ProxyStreamlined {
		t.Fatalf("scheme = %v", d.Scheme)
	}
	req := bigReq()
	req.Scheme = workload.ProxyNaive
	d, _ = o.Decide(req)
	if d.Scheme != workload.ProxyNaive {
		t.Fatalf("scheme = %v", d.Scheme)
	}
}

func TestDecentralizedSamplesAndBalances(t *testing.T) {
	o := New(7)
	for h := 0; h < 8; h++ {
		o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 56 + h}, Capacity: 100 * units.Gbps})
	}
	counts := map[workload.HostRef]int{}
	for i := 0; i < 64; i++ {
		d, err := o.DecideDecentralized(bigReq(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !d.UseProxy || d.Probes != 2 {
			t.Fatalf("decision = %+v", d)
		}
		counts[d.Proxy]++
	}
	// Power-of-two-choices must spread incasts: no proxy should hold
	// more than a third of them.
	for ref, c := range counts {
		if c > 22 {
			t.Fatalf("proxy %v got %d/64 incasts; balancing failed: %v", ref, c, counts)
		}
	}
}

func TestDecentralizedNoProxies(t *testing.T) {
	o := New(1)
	if _, err := o.DecideDecentralized(bigReq(), 3); err != ErrNoProxies {
		t.Fatalf("err = %v", err)
	}
}

func TestCompleteUnknownProxyIsNoop(t *testing.T) {
	o := New(1)
	o.Complete(workload.HostRef{DC: 0, Host: 1}, units.MB) // must not panic
}

func TestLoadAccounting(t *testing.T) {
	o := New(1)
	ref := workload.HostRef{DC: 0, Host: 60}
	o.Register(Proxy{Ref: ref})
	o.Decide(bigReq())
	active, committed, ok := o.Load(ref)
	if !ok || active != 1 || committed != bigReq().Bytes {
		t.Fatalf("load = %d/%v ok=%v", active, committed, ok)
	}
	// Over-release clamps at zero.
	o.Complete(ref, 10*bigReq().Bytes)
	if _, committed, _ := o.Load(ref); committed != 0 {
		t.Fatalf("committed = %v after over-release", committed)
	}
	if _, _, ok := o.Load(workload.HostRef{DC: 1, Host: 1}); ok {
		t.Fatal("unknown proxy should not report load")
	}
}

// With a single registered proxy, decentralized sampling must converge on it
// every time regardless of trial count, and report the sampling overhead it
// actually paid, not the pool size.
func TestDecentralizedSingleProxy(t *testing.T) {
	o := New(1)
	only := workload.HostRef{DC: 0, Host: 63}
	o.Register(Proxy{Ref: only, Capacity: 100 * units.Gbps})
	for i := 0; i < 3; i++ {
		d, err := o.DecideDecentralized(bigReq(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !d.UseProxy || d.Proxy != only {
			t.Fatalf("decision %d missed the only proxy: %+v", i, d)
		}
		if d.Probes != 5 {
			t.Fatalf("decision %d probes = %d, want the 5 trials paid", i, d.Probes)
		}
	}
}

func TestPredictICTOrdering(t *testing.T) {
	req := bigReq()
	base := model.PredictICT(modelParams(workload.Baseline, req))
	prox := model.PredictICT(modelParams(workload.ProxyStreamlined, req))
	if prox >= base {
		t.Fatalf("model: proxy (%v) must beat baseline (%v) on a lossy incast", prox, base)
	}
	// Small incast: baseline pays no penalty, proxy adds a hop.
	small := req
	small.Bytes = units.MB
	if model.PredictICT(modelParams(workload.Baseline, small)) > model.PredictICT(modelParams(workload.ProxyStreamlined, small)) {
		t.Fatal("model: tiny incast should not favor the proxy")
	}
}

// The model must preserve the paper's ordering at every overflow severity:
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
			cur[s] = model.PredictICT(modelParams(s, req))
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
	if model.PredictICT(modelParams(workload.Baseline, req)) <= model.PredictICT(modelParams(workload.ProxyStreamlined, req)) {
		t.Error("overflowing baseline should predict strictly worse than streamlined")
	}
}
