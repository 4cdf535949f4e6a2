package workload

import (
	"runtime"
	"strings"
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/stats"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// quickSpec is a reduced-size incast (degree 4, 8 MB) that still exercises
// the full fabric but runs in milliseconds of wall time.
func quickSpec(s Scheme) Spec {
	return Spec{
		Scheme:     s,
		Degree:     4,
		TotalBytes: 8 * units.MB,
		Runs:       1,
		Seed:       42,
	}
}

func TestSplitBytes(t *testing.T) {
	shares := splitBytes(10, 3)
	if shares[0] != 4 || shares[1] != 3 || shares[2] != 3 {
		t.Fatalf("shares = %v", shares)
	}
	var sum units.ByteSize
	for _, s := range splitBytes(100*units.MB, 7) {
		sum += s
	}
	if sum != 100*units.MB {
		t.Fatalf("shares don't sum: %v", sum)
	}
}

func TestValidate(t *testing.T) {
	good := quickSpec(Baseline)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noBackbone := good
	noBackbone.Topo = topo.DefaultConfig()
	noBackbone.Topo.Backbones, noBackbone.Topo.BackbonesPerSpine = 0, 0
	for _, bad := range []Spec{
		{Scheme: Baseline, Degree: 0, TotalBytes: units.MB},
		{Scheme: Baseline, Degree: 64, TotalBytes: units.MB}, // 63 max (proxy host)
		{Scheme: Baseline, Degree: 4, TotalBytes: 0},
		noBackbone, // every incast crosses DCs
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v should be invalid", bad)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if Baseline.String() != "baseline" || ProxyNaive.String() != "proxy-naive" ||
		ProxyStreamlined.String() != "proxy-streamlined" {
		t.Fatal("scheme strings wrong")
	}
	if Scheme(42).String() == "" {
		t.Fatal("unknown scheme should print")
	}
	if len(Schemes()) != 3 {
		t.Fatal("Schemes() must list all three")
	}
}

func TestBaselineIncastCompletes(t *testing.T) {
	res, err := Run(quickSpec(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Runs[0]
	if !rr.Completed {
		t.Fatal("baseline incast incomplete")
	}
	// 8 MB over an effectively 100 Gb/s bottleneck with ~4 ms RTT:
	// lower bound is transfer (0.64 ms) + one-way (~2 ms).
	if rr.ICT < 2*units.Millisecond {
		t.Fatalf("ICT %v implausibly fast", rr.ICT)
	}
	if rr.ICT > units.Second {
		t.Fatalf("ICT %v implausibly slow", rr.ICT)
	}
	if rr.FlowFCT.N != 4 || rr.FlowFCT.P99 == 0 || rr.FlowFCT.Max != rr.ICT {
		t.Fatalf("FlowFCT summary not populated: %+v (ICT %v)", rr.FlowFCT, rr.ICT)
	}
}

func TestNaiveProxyIncastCompletes(t *testing.T) {
	res, err := Run(quickSpec(ProxyNaive))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Runs[0].Completed {
		t.Fatal("naive incast incomplete")
	}
}

func TestStreamlinedProxyIncastCompletes(t *testing.T) {
	res, err := Run(quickSpec(ProxyStreamlined))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Runs[0].Completed {
		t.Fatal("streamlined incast incomplete")
	}
}

// A run that hits MaxSimTime names what the fabric discarded uncounted by any
// queue — and says nothing extra when it discarded nothing.
func TestIncompleteNamesFabricDiscards(t *testing.T) {
	spec := quickSpec(Baseline)
	spec.MaxSimTime = 20 * units.Millisecond
	spec.OnBuild = func(n *topo.Network, _ *sim.Engine) {
		for _, bb := range n.Backbones {
			bb.SetRoute(func(netsim.NodeID) []*netsim.Port { return nil })
		}
	}
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "0/4 flows done (fib_misses=") ||
		!strings.Contains(err.Error(), " unclaimed=0 host_down_drops=0)") {
		t.Fatalf("blackholed backbones: err = %v, want the flow count and the fabric totals", err)
	}

	spec = quickSpec(ProxyStreamlined)
	spec.MaxSimTime, spec.ProxyCrashAt = 20*units.Millisecond, units.Microsecond
	if _, err = Run(spec); err == nil || !strings.Contains(err.Error(), "fib_misses=0 unclaimed=0 host_down_drops=") ||
		strings.Contains(err.Error(), "host_down_drops=0") {
		t.Fatalf("crashed proxy: err = %v, want non-zero host_down_drops", err)
	}

	spec = quickSpec(Baseline)
	spec.MaxSimTime = units.Millisecond // shorter than one inter-DC RTT
	if _, err = Run(spec); err == nil || !strings.HasSuffix(err.Error(), "0/4 flows done") {
		t.Fatalf("clean timeout: err = %v, want no fabric totals", err)
	}
}

// TestProxySchemesBeatBaselineOnLargeIncast reproduces the paper's headline
// claim on a reduced-size instance: for an incast large enough to lose
// packets in the first RTT, both proxy schemes finish substantially faster
// than the baseline (Figure 2).
func TestProxySchemesBeatBaselineOnLargeIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	spec := Spec{Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}

	icts := map[Scheme]units.Duration{}
	for _, s := range Schemes() {
		sp := spec
		sp.Scheme = s
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		icts[s] = res.ICT.Avg()
		t.Logf("%v: ICT=%v timeouts=%d retx=%d nacks=%d",
			s, res.ICT.Avg(), res.Runs[0].Timeouts, res.Runs[0].Retransmits, res.Runs[0].Nacks)
	}
	if icts[ProxyNaive] >= icts[Baseline] {
		t.Errorf("naive proxy (%v) not faster than baseline (%v)", icts[ProxyNaive], icts[Baseline])
	}
	if icts[ProxyStreamlined] >= icts[Baseline] {
		t.Errorf("streamlined proxy (%v) not faster than baseline (%v)", icts[ProxyStreamlined], icts[Baseline])
	}
	// The paper reports >50% reductions at 100 MB; demand at least 30%
	// on this smaller instance.
	if red := stats.Reduction(icts[Baseline], icts[ProxyStreamlined]); red < 0.30 {
		t.Errorf("streamlined reduction only %.1f%%", red*100)
	}
}

// TestBottleneckShiftsToProxyToR checks Figure 1's mechanism: under the
// proxy schemes congestion accumulates at the proxy down-ToR in the sending
// DC, not at the receiver down-ToR.
func TestBottleneckShiftsToProxyToR(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	spec := Spec{Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}

	base := spec
	base.Scheme = Baseline
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Runs[0].ReceiverToRMaxQueue < bres.Runs[0].ProxyToRMaxQueue {
		t.Errorf("baseline: receiver ToR (%v) should be the hot queue, proxy ToR %v",
			bres.Runs[0].ReceiverToRMaxQueue, bres.Runs[0].ProxyToRMaxQueue)
	}
	if bres.Runs[0].ReceiverToRDrops == 0 {
		t.Error("baseline at this size should overflow the receiver down-ToR")
	}

	for _, s := range []Scheme{ProxyNaive, ProxyStreamlined} {
		sp := spec
		sp.Scheme = s
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rr := res.Runs[0]
		if rr.ProxyToRMaxQueue <= rr.ReceiverToRMaxQueue {
			t.Errorf("%v: bottleneck did not shift (proxy ToR %v vs receiver ToR %v)",
				s, rr.ProxyToRMaxQueue, rr.ReceiverToRMaxQueue)
		}
	}
}

func TestStreamlinedUsesNacks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	sp := Spec{Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Runs[0]
	if rr.ProxyToRTrims == 0 {
		t.Error("streamlined at this size should trim at the proxy down-ToR")
	}
	if rr.Nacks == 0 {
		t.Error("streamlined senders should receive proxy NACKs")
	}
}

// TestInferringProxyMatchesStreamlined evaluates future work #1: the
// trimming-free inferring proxy should complete on par with streamlined
// (both provide microsecond loss feedback) and far ahead of the baseline,
// without false NACKs under packet spraying at the default reorder delay.
func TestInferringProxyMatchesStreamlined(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	icts := map[Scheme]units.Duration{}
	var falseNacks uint64
	for _, sch := range []Scheme{Baseline, ProxyStreamlined, ProxyInferring} {
		res, err := Run(Spec{Scheme: sch, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		icts[sch] = res.ICT.Avg()
		if sch == ProxyInferring {
			falseNacks = res.Runs[0].ProxyFalseNacks
			if res.Runs[0].ProxyToRDrops == 0 {
				t.Error("inferring scheme should rely on drops, not trims")
			}
			if res.Runs[0].Nacks == 0 {
				t.Error("inferring proxy sent no NACKs")
			}
		}
	}
	if icts[ProxyInferring] >= icts[Baseline]/2 {
		t.Errorf("inferring (%v) should massively beat baseline (%v)",
			icts[ProxyInferring], icts[Baseline])
	}
	// Same order of magnitude as streamlined (within 3x).
	if icts[ProxyInferring] > 3*icts[ProxyStreamlined] {
		t.Errorf("inferring (%v) far behind streamlined (%v)",
			icts[ProxyInferring], icts[ProxyStreamlined])
	}
	if falseNacks > 100 {
		t.Errorf("false NACKs = %d; reorder disambiguation failing", falseNacks)
	}
}

func TestInferringSchemeString(t *testing.T) {
	if ProxyInferring.String() != "proxy-inferring" {
		t.Fatal("scheme string wrong")
	}
	// The paper's comparison set stays at three schemes.
	if len(Schemes()) != 3 {
		t.Fatal("Schemes() must remain the paper's three")
	}
}

func TestMultipleRunsVarySeed(t *testing.T) {
	sp := quickSpec(Baseline)
	sp.Runs = 3
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 || res.ICT.N() != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.ICT.Min() > res.ICT.Avg() || res.ICT.Avg() > res.ICT.Max() {
		t.Fatal("run stats ordering broken")
	}
	// Each run has a seed of its own, and the seed must matter: no two runs
	// are the same run.
	for i := 1; i < len(res.Runs); i++ {
		if a, b := res.Runs[i-1], res.Runs[i]; a.ICT == b.ICT && a.Events == b.Events && a.FlowFCT == b.FlowFCT {
			t.Errorf("runs %d and %d are identical: ICT %v, %d events", i-1, i, a.ICT, a.Events)
		}
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	_, err := Run(Spec{Scheme: Baseline, Degree: 0, TotalBytes: units.MB})
	if err == nil {
		t.Fatal("invalid spec must error")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, err := Run(quickSpec(ProxyStreamlined))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec(ProxyStreamlined))
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs[0].ICT != b.Runs[0].ICT || a.Runs[0].Events != b.Runs[0].Events {
		t.Fatalf("same seed, different outcomes: %v/%v events %d/%d",
			a.Runs[0].ICT, b.Runs[0].ICT, a.Runs[0].Events, b.Runs[0].Events)
	}
}

// A hop is one event, busy or idle: on the default fabric no
// serialization-end event is ever dispatched. Counted by arithmetic on the
// Fig 2 degree-8 cells, drained past completion so that every packet a queue
// admitted has arrived: the events are those arrivals, one processing-delay
// event per packet the proxy handled, and the senders' timer fires (flows
// start at time zero, inside Run). One event per backlogged packet on top of
// that was 35% of the streamlined cell and 25% of the baseline one.
func TestRunHasNoSerializationEndEvents(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, ProxyStreamlined} {
		var net *topo.Network
		var eng *sim.Engine
		spec := Spec{Scheme: scheme, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
		spec.OnBuild = func(n *topo.Network, e *sim.Engine) { net, eng = n, e }
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		var arrivals uint64
		for _, p := range net.AllPorts() {
			arrivals += p.Stats().Enqueued
		}
		proxyHost := net.Hosts[0][len(net.Hosts[0])-1]
		handled := net.DownToRPort(proxyHost).Stats().Enqueued
		if proxyHost.Unclaimed != 0 || (scheme == Baseline) != (handled == 0) {
			t.Fatalf("%v: proxy host got %d packets, %d unclaimed", scheme, handled, proxyHost.Unclaimed)
		}
		timerFires := eng.Processed() - arrivals - handled
		switch {
		case eng.Processed() < arrivals+handled:
			t.Errorf("%v: %d events for %d arrivals and %d proxy delays", scheme, eng.Processed(), arrivals, handled)
		case scheme == ProxyStreamlined && timerFires != 0:
			// Every ACK and NACK moves a sender's timer, and none ever comes due.
			t.Errorf("%v: %d events beyond %d arrivals and %d proxy delays, want none (timeouts: %d)",
				scheme, timerFires, arrivals, handled, res.Runs[0].Timeouts)
		case timerFires < res.Runs[0].Timeouts || timerFires > arrivals/1000:
			// Baseline recovers by RTO: its timers do fire, a few times per timeout.
			t.Errorf("%v: %d events beyond %d arrivals, with %d timeouts: more than timers account for",
				scheme, timerFires, arrivals, res.Runs[0].Timeouts)
		}
	}
}

// fanInEpoch returns an epoch of epoch_fanin's shape: 4,000 streamlined flows
// of 16 MB in all on the 32×128 fabric, with nothing wired yet.
func fanInEpoch() *epoch {
	cfg := topo.DefaultConfig()
	cfg.Leaves, cfg.ServersPerLeaf = 32, 128
	spec := Spec{Scheme: ProxyStreamlined, Topo: cfg, Degree: 4000, TotalBytes: 16 * units.MB, Seed: 7}.withDefaults()
	return newEpoch(spec, spec.Seed)
}

// wireIncast reserves and wires the epoch's Degree incast flows as
// startIncast does, and starts none of them.
func wireIncast(ep *epoch) {
	at := ep.incastFlows()
	ep.reserve(ep.spec.Degree, at)
	for i := range ep.spec.Degree {
		ep.wire(at(i))
	}
}

// Wiring a streamlined flow allocates nothing of its own. Its receiver, proxy
// endpoint and sender, the sender's table and send log, and the receiver's
// bitset all come from arrays reserve makes for every flow of the batch. So
// wiring the 4,000 flows of a fan-in epoch makes twelve allocations in all:
// reserve's six arrays, the byte shares, the flow template and its closure,
// the completion callback, and the two of the generator the epoch's random
// stream builds at its 274th draw (each proxy endpoint's stream is seeded by
// one). The proxy and receiver hosts' binding maps, which grow as flows bind,
// are netsim's; the test grows them before it counts. Wiring was 14.5
// allocations per flow while each of these was an object of its own, and 5
// per flow until the flows came from shared arrays.
func TestWireAllocsPerStreamlinedFlow(t *testing.T) {
	var eps [2]*epoch // AllocsPerRun makes one warm-up call
	idle := netsim.EndpointFunc(func(*sim.Engine, *netsim.Packet) {})
	for i := range eps {
		eps[i] = fanInEpoch()
		for j := range eps[i].spec.Degree {
			eps[i].recv.Bind(netsim.FlowID(j+1), idle)
			eps[i].proxyHost.Bind(netsim.FlowID(j+1), idle)
		}
	}
	next := 0
	total := testing.AllocsPerRun(1, func() {
		wireIncast(eps[next])
		next++
	})
	for _, ep := range eps {
		if len(ep.senders) != ep.spec.Degree {
			t.Fatalf("wired %d flows, want %d", len(ep.senders), ep.spec.Degree)
		}
	}
	if total > 16 {
		t.Errorf("wiring %d streamlined flows: %.0f allocations, want <= 16", eps[0].spec.Degree, total)
	}
	t.Logf("wiring %d streamlined flows: %.0f allocations", eps[0].spec.Degree, total)
}

// BenchmarkWireFanIn measures reserving and wiring the 4,000 flows of a
// fan-in epoch, per flow: time, and allocations, binding-map growth included. Each iteration
// builds its epoch with the timer stopped.
func BenchmarkWireFanIn(b *testing.B) {
	var mallocs uint64
	var ms runtime.MemStats
	flows := 0
	for range b.N {
		b.StopTimer()
		ep := fanInEpoch()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		wireIncast(ep)
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		flows += ep.spec.Degree
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flows), "ns/flow")
	b.ReportMetric(float64(mallocs)/float64(flows), "allocs/flow")
}
