package model

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// singleLeafConfig is the smallest fabric the model must handle: one leaf,
// one spine, one backbone per DC side — sender and proxy share a ToR.
func singleLeafConfig() topo.Config {
	return topo.Config{
		Spines:            1,
		Leaves:            1,
		ServersPerLeaf:    4,
		Backbones:         1,
		BackbonesPerSpine: 1,
		LinkRate:          100 * units.Gbps,
		IntraDelay:        units.Microsecond,
		InterDelay:        100 * units.Microsecond,
		TorQueue:          netsim.QueueConfig{Capacity: 1_000_000},
		Spray:             true,
		Seed:              1,
	}
}

// The model and the built fabric evaluate one closed form
// (topo.Config.PathRTT); what can still drift is the model's link counts for
// its three paths — first sender, proxy on DC0's last host, receiver on DC1's
// first — against the counts the fabric derives for those hosts. Equal to the
// picosecond, on the shapes where the counts differ.
func TestPathRTTsMatchBuiltFabric(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topo.Config
	}{
		{"default", topo.DefaultConfig()},
		{"single-leaf", singleLeafConfig()},
		{"latency-sweep", func() topo.Config {
			c := topo.DefaultConfig()
			c.InterDelay = 10 * units.Millisecond
			return c
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := topo.Build(sim.New(), tc.cfg)
			snd := net.Hosts[0][0]
			recv := net.Hosts[1][0]
			proxyHost := net.Hosts[0][len(net.Hosts[0])-1]
			mss := transportMSS()

			direct, up, down := PathRTTs(tc.cfg, mss)
			if want := net.PathRTT(snd, recv, mss, netsim.ControlSize); direct != want {
				t.Errorf("direct RTT = %v, fabric says %v", direct, want)
			}
			if want := net.PathRTT(snd, proxyHost, mss, netsim.ControlSize); up != want {
				t.Errorf("up RTT = %v, fabric says %v", up, want)
			}
			if want := net.PathRTT(proxyHost, recv, mss, netsim.ControlSize); down != want {
				t.Errorf("down RTT = %v, fabric says %v", down, want)
			}
		})
	}
}

func transportMSS() units.ByteSize { return 1500 }

func TestFromSpecDefaults(t *testing.T) {
	p, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 4, TotalBytes: 40 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	def := topo.DefaultConfig()
	if p.Rate != def.LinkRate || p.Buffer != def.TorQueue.Capacity || p.FanIn != def.Spines {
		t.Fatalf("defaults not derived from the default fabric: %+v", p)
	}
	if p.MSS != 1500 {
		t.Fatalf("MSS = %v", p.MSS)
	}
	if p.DirectRTT <= 2*def.InterDelay {
		t.Fatalf("direct RTT %v must exceed the bare long-haul propagation", p.DirectRTT)
	}
	if p.CrossBytes != 0 {
		t.Fatalf("zero cross-traffic spec must produce zero CrossBytes, got %v", p.CrossBytes)
	}
}

// The model prices the baseline's overflow stall with the initial RTO the
// simulated senders start with, both from transport.ConfigFor. On the paper's
// cell (degree 4, 100 MB, 1 ms long-haul links) that is 28,061,255,040 ps,
// the value internal/workload's TestSenderTimingIsConfigFor reads off every
// wired sender.
func TestOverflowStallIsConfigForRTO(t *testing.T) {
	p, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 4, TotalBytes: 100 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	pred := Predict(p)
	if pred.Regime != RegimeOverflow {
		t.Fatalf("regime %v, want overflow", pred.Regime)
	}
	if want := units.Duration(28_061_255_040); pred.Stall != want {
		t.Fatalf("overflow stall %d ps, want %d ps", pred.Stall, want)
	}
}

func TestFromSpecRejectsAdaptiveAndInvalid(t *testing.T) {
	if _, err := FromSpec(workload.Spec{Scheme: workload.SchemeAdaptive, Degree: 4, TotalBytes: units.MB}); err == nil {
		t.Fatal("adaptive scheme must be rejected")
	}
	if _, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 0, TotalBytes: units.MB}); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
	noBackbone := singleLeafConfig()
	noBackbone.Backbones = 0
	noBackbone.BackbonesPerSpine = 0
	if _, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 1, TotalBytes: units.MB, Topo: noBackbone}); err == nil {
		t.Fatal("backbone-less topology must be rejected")
	}
}

// A degenerate one-sender "incast" can never overflow via aggregate burst:
// the model must land in the no-loss regime with the ideal pipeline time.
func TestPredictOneSenderNoLoss(t *testing.T) {
	p, err := FromSpec(workload.Spec{Scheme: workload.Baseline, Degree: 1, TotalBytes: 100 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	pred := Predict(p)
	if pred.Regime != RegimeNoLoss {
		t.Fatalf("regime = %v, want no-loss", pred.Regime)
	}
	ideal := p.DirectRTT/2 + p.Rate.TransmitTime(p.TotalBytes)
	if pred.ICT != ideal {
		t.Fatalf("ICT = %v, want ideal %v", pred.ICT, ideal)
	}
	if pred.P50 != pred.P99 || pred.P50 != pred.ICT {
		t.Fatalf("one flow: p50/p99/ICT must coincide: %+v", pred)
	}
	if pred.LossBytes != 0 {
		t.Fatalf("no-loss regime predicted %v lost", pred.LossBytes)
	}
}

// CrossBytes must penalize only the proxy path: the direct prediction is
// unchanged, and the proxied one grows by at most the cross drain time.
func TestCrossTrafficOnlyAffectsProxyPath(t *testing.T) {
	base := Params{Scheme: workload.ProxyStreamlined, Degree: 4, TotalBytes: 40 * units.MB,
		DirectRTT: 4 * units.Millisecond, ProxyUpRTT: 8 * units.Microsecond}
	withCross := base
	withCross.CrossBytes = 80 * units.MB

	d0, p0 := Compare(base)
	d1, p1 := Compare(withCross)
	if d0.ICT != d1.ICT {
		t.Fatalf("cross traffic changed the direct prediction: %v -> %v", d0.ICT, d1.ICT)
	}
	if p1.ICT <= p0.ICT {
		t.Fatalf("cross traffic must slow the proxied path: %v -> %v", p0.ICT, p1.ICT)
	}
}

// Predictions must grow monotonically with transfer size within each
// scheme, and the goodput must never exceed the link rate.
func TestPredictMonotonicAndBounded(t *testing.T) {
	for _, scheme := range []workload.Scheme{workload.Baseline, workload.ProxyNaive, workload.ProxyStreamlined} {
		var prev units.Duration
		for _, size := range []units.ByteSize{units.MB, 10 * units.MB, 40 * units.MB,
			100 * units.MB, 400 * units.MB, 1600 * units.MB} {
			p, err := FromSpec(workload.Spec{Scheme: scheme, Degree: 8, TotalBytes: size})
			if err != nil {
				t.Fatal(err)
			}
			pred := Predict(p)
			if pred.ICT <= 0 {
				t.Fatalf("%v @ %v: non-positive ICT %v", scheme, size, pred.ICT)
			}
			if pred.ICT < prev {
				t.Errorf("%v: ICT shrank with size: %v @ %v < %v earlier", scheme, pred.ICT, size, prev)
			}
			if pred.P50 > pred.P99 {
				t.Errorf("%v @ %v: p50 %v > p99 %v", scheme, size, pred.P50, pred.P99)
			}
			if pred.Goodput > p.Rate {
				t.Errorf("%v @ %v: goodput %v exceeds link rate %v", scheme, size, pred.Goodput, p.Rate)
			}
			prev = pred.ICT
		}
	}
}

// The zero-value Params (plus a size) must predict something sane off the
// default fabric's constants — the orchestrator's coarse-Request path.
func TestPredictZeroValueDefaults(t *testing.T) {
	pred := Predict(Params{Degree: 8, TotalBytes: 100 * units.MB, DirectRTT: 4 * units.Millisecond})
	if pred.ICT <= 0 || pred.Regime != RegimeOverflow {
		t.Fatalf("zero-value params: %+v", pred)
	}
	if Predict(Params{}).ICT != 0 {
		t.Fatal("empty params must predict zero")
	}
}

func TestRegimeStrings(t *testing.T) {
	for r, want := range map[Regime]string{
		RegimeNoLoss: "no-loss", RegimeSustained: "sustained",
		RegimeOverflow: "overflow", RegimeProxy: "proxy", Regime(42): "Regime(42)",
	} {
		if got := r.String(); got != want {
			t.Errorf("Regime(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}
