package workload

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/units"
)

func TestScenarioValidate(t *testing.T) {
	ok := Scenario{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: units.MB}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scenario{
		{},
		{Flows: []FlowSpec{{ID: 0, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1}}},
		{Flows: []FlowSpec{{ID: 1 << 20, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1}}},
		{Flows: []FlowSpec{
			{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1},
			{ID: 1, Src: HostRef{0, 1}, Dst: HostRef{1, 0}, Bytes: 1},
		}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{2, 0}, Dst: HostRef{1, 0}, Bytes: 1}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 999}, Dst: HostRef{1, 0}, Bytes: 1}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{0, 0}, Bytes: 1}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 0}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1, Start: -1}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1,
			Via: &ProxyRef{Scheme: Baseline, At: HostRef{0, 1}}}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1,
			Via: &ProxyRef{Scheme: ProxyInferring, At: HostRef{0, 1}}}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1,
			Via: &ProxyRef{Scheme: SchemeAdaptive, At: HostRef{0, 1}}}}},
		{Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1,
			Via: &ProxyRef{Scheme: ProxyNaive, At: HostRef{0, 9999}}}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestScenarioMixedFlows(t *testing.T) {
	sc := Scenario{
		Seed: 3,
		Flows: []FlowSpec{
			// Direct cross-DC flow.
			{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 2 * units.MB},
			// Streamlined-proxied flow starting later.
			{ID: 2, Src: HostRef{0, 1}, Dst: HostRef{1, 1}, Bytes: 2 * units.MB,
				Start: units.Duration(500 * units.Microsecond),
				Via:   &ProxyRef{Scheme: ProxyStreamlined, At: HostRef{0, 63}}},
			// Naive-proxied flow.
			{ID: 3, Src: HostRef{0, 2}, Dst: HostRef{1, 2}, Bytes: 2 * units.MB,
				Via: &ProxyRef{Scheme: ProxyNaive, At: HostRef{0, 62}}},
			// Intra-DC flow.
			{ID: 4, Src: HostRef{1, 3}, Dst: HostRef{1, 4}, Bytes: units.MB},
		},
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Done) != 4 {
		t.Fatalf("completed=%v done=%d", res.Completed, len(res.Done))
	}
	// The delayed flow cannot finish before it starts.
	if res.Done[2] < units.Duration(500*units.Microsecond) {
		t.Fatalf("flow 2 done at %v, before its start", res.Done[2])
	}
	// Intra-DC 1MB flow should be far faster than cross-DC 2MB flows.
	if res.Done[4] >= res.Done[1] {
		t.Fatalf("intra-DC flow (%v) should beat cross-DC (%v)", res.Done[4], res.Done[1])
	}
	if res.Makespan == 0 || res.Events == 0 {
		t.Fatal("missing makespan/events")
	}
}

func TestScenarioStartOffsetRespected(t *testing.T) {
	start := units.Duration(3 * units.Millisecond)
	sc := Scenario{
		Flows: []FlowSpec{{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0},
			Bytes: 100 * units.KB, Start: start}},
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done[1] <= start {
		t.Fatalf("flow done %v, must be after start %v", res.Done[1], start)
	}
}

func TestMoEAllToAll(t *testing.T) {
	scheme := ProxyStreamlined
	cfg := MoEConfig{
		LocalExperts:  3,
		RemoteExperts: 2,
		BytesPerPair:  100 * units.KB,
		Phases:        2,
		Period:        units.Duration(10 * units.Millisecond),
		ProxyCrossDC:  &scheme,
		ProxyHost:     [2]int{63, 63},
	}
	flows, next := MoEAllToAll(cfg, 1)
	// 5 experts, all-to-all = 20 flows per phase, 2 phases.
	if len(flows) != 40 {
		t.Fatalf("flows = %d, want 40", len(flows))
	}
	if next != 41 {
		t.Fatalf("next ID = %d", next)
	}
	crossProxied, intra := 0, 0
	for _, f := range flows {
		if f.Src.DC != f.Dst.DC {
			if f.Via == nil || f.Via.Scheme != ProxyStreamlined {
				t.Fatalf("cross-DC flow not proxied: %+v", f)
			}
			if f.Via.At.DC != f.Src.DC {
				t.Fatalf("proxy must be in the sending DC: %+v", f)
			}
			crossProxied++
		} else {
			if f.Via != nil {
				t.Fatalf("intra-DC flow proxied: %+v", f)
			}
			intra++
		}
	}
	// Per phase: cross = 3*2*2 = 12, intra = 3*2 + 2*1 = 8.
	if crossProxied != 24 || intra != 16 {
		t.Fatalf("cross=%d intra=%d", crossProxied, intra)
	}
	// Phase 2 flows start one period later.
	if flows[20].Start != cfg.Period || flows[0].Start != 0 {
		t.Fatalf("phase starts wrong: %v / %v", flows[0].Start, flows[20].Start)
	}
}

func TestStorageReconstructionSkipsProxyHost(t *testing.T) {
	cfg := StorageReconstructionConfig{
		Fragments:     5,
		FragmentBytes: units.MB,
		Orchestrator:  HostRef{DC: 1, Host: 0},
		Via:           &ProxyRef{Scheme: ProxyNaive, At: HostRef{DC: 0, Host: 2}},
	}
	flows, next := StorageReconstruction(cfg, 10)
	if len(flows) != 5 || next != 15 {
		t.Fatalf("flows=%d next=%d", len(flows), next)
	}
	for _, f := range flows {
		if f.Src.Host == 2 {
			t.Fatal("proxy host must not hold a fragment")
		}
		if f.Dst != cfg.Orchestrator {
			t.Fatal("all fragments go to the orchestrator")
		}
	}
}

func TestGeneratedScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	flows, next := StorageReconstruction(StorageReconstructionConfig{
		Fragments:     4,
		FragmentBytes: 500 * units.KB,
		Orchestrator:  HostRef{DC: 1, Host: 0},
		Via:           &ProxyRef{Scheme: ProxyStreamlined, At: HostRef{DC: 0, Host: 63}},
	}, 1)
	qflows, _ := StorageReconstruction(StorageReconstructionConfig{
		Fragments:     3,
		FragmentBytes: 200 * units.KB,
		Orchestrator:  HostRef{DC: 1, Host: 5},
	}, next)
	sc := Scenario{Flows: append(flows, qflows...), Seed: 11}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("generated scenario incomplete")
	}
	if len(res.Done) != 7 {
		t.Fatalf("done = %d flows", len(res.Done))
	}
}

// TestProxyBenefitSurvivesBackgroundTraffic runs an incast while background
// flows pour into the proxy host (Spec.CrossTraffic, as FigureAdaptive's cross
// row runs them), congesting the proxy path's own bottleneck: the streamlined
// proxy must still beat the direct route decisively.
func TestProxyBenefitSurvivesBackgroundTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	ict := func(s Scheme) units.Duration {
		return runOne(t, Spec{Scheme: s, Degree: 8, TotalBytes: 40 * units.MB, Seed: 9,
			CrossTraffic: CrossTrafficSpec{Flows: 4, Bytes: 10 * units.MB}}).ICT
	}
	if direct, proxied := ict(Baseline), ict(ProxyStreamlined); proxied >= direct/2 {
		t.Fatalf("under background load: proxied %v vs direct %v — benefit lost", proxied, direct)
	}
}

func TestScenarioFlowIDCollisionWithRelayLegRejected(t *testing.T) {
	sc := Scenario{Flows: []FlowSpec{
		{ID: netsim.FlowID(1 << 21), Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 1},
	}}
	if err := sc.Validate(); err == nil {
		t.Fatal("IDs >= 1<<20 must be rejected (reserved for relay legs)")
	}
}
