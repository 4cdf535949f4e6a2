package orchestrator

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

func assignFixture() []workload.FlowSpec {
	var flows []workload.FlowSpec
	id := 1
	// Incast A: 4 senders -> dc1/h0, 10 MB each (big: should be proxied).
	for s := 0; s < 4; s++ {
		flows = append(flows, workload.FlowSpec{
			ID: netsim.FlowID(id), Src: workload.HostRef{DC: 0, Host: s},
			Dst: workload.HostRef{DC: 1, Host: 0}, Bytes: 10 * units.MB,
		})
		id++
	}
	// Incast B: 2 senders -> dc1/h1, 100 KB each (small: stays direct).
	for s := 4; s < 6; s++ {
		flows = append(flows, workload.FlowSpec{
			ID: netsim.FlowID(id), Src: workload.HostRef{DC: 0, Host: s},
			Dst: workload.HostRef{DC: 1, Host: 1}, Bytes: 100 * units.KB,
		})
		id++
	}
	// Intra-DC flow: never touched.
	flows = append(flows, workload.FlowSpec{
		ID: netsim.FlowID(id), Src: workload.HostRef{DC: 1, Host: 5},
		Dst: workload.HostRef{DC: 1, Host: 6}, Bytes: 50 * units.MB,
	})
	return flows
}

func TestAssignIncasts(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 63}})
	flows := assignFixture()
	out, assignments, err := o.AssignIncasts(flows, workload.ProxyStreamlined)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 2 {
		t.Fatalf("assignments = %d, want 2 incasts", len(assignments))
	}
	for _, a := range assignments {
		switch a.Dst {
		case workload.HostRef{DC: 1, Host: 0}:
			if !a.Decision.UseProxy || a.Degree != 4 || a.Bytes != 40*units.MB {
				t.Fatalf("big incast: %+v", a)
			}
		case workload.HostRef{DC: 1, Host: 1}:
			if a.Decision.UseProxy {
				t.Fatalf("small incast proxied: %+v", a)
			}
		default:
			t.Fatalf("unexpected incast %+v", a)
		}
	}
	for i, f := range out {
		crossBig := f.Src.DC == 0 && f.Dst == (workload.HostRef{DC: 1, Host: 0})
		if crossBig && (f.Via == nil || f.Via.At != (workload.HostRef{DC: 0, Host: 63})) {
			t.Fatalf("flow %d of big incast not proxied: %+v", i, f)
		}
		if !crossBig && f.Via != nil {
			t.Fatalf("flow %d wrongly proxied: %+v", i, f)
		}
	}
	// Input must not be mutated.
	for _, f := range flows {
		if f.Via != nil {
			t.Fatal("AssignIncasts mutated its input")
		}
	}
}

func TestAssignIncastsRespectsExistingVia(t *testing.T) {
	o := New(1)
	o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 63}})
	pinned := &workload.ProxyRef{Scheme: workload.ProxyNaive, At: workload.HostRef{DC: 0, Host: 7}}
	flows := []workload.FlowSpec{{
		ID: 1, Src: workload.HostRef{DC: 0, Host: 0}, Dst: workload.HostRef{DC: 1, Host: 0},
		Bytes: 100 * units.MB, Via: pinned,
	}}
	out, assignments, err := o.AssignIncasts(flows, workload.ProxyStreamlined)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 0 {
		t.Fatal("pinned flow must not be re-decided")
	}
	if out[0].Via != pinned {
		t.Fatal("pinned Via replaced")
	}
}

func TestAssignIncastsNoProxyError(t *testing.T) {
	o := New(1) // nothing registered
	flows := assignFixture()
	if _, _, err := o.AssignIncasts(flows, workload.ProxyStreamlined); err == nil {
		t.Fatal("expected error with no registered proxies")
	}
}

func TestAssignIncastsDeterministicOrder(t *testing.T) {
	run := func() []Assignment {
		o := New(1)
		o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 62}})
		o.Register(Proxy{Ref: workload.HostRef{DC: 0, Host: 63}})
		_, as, err := o.AssignIncasts(assignFixture(), workload.ProxyStreamlined)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic assignment count")
	}
	for i := range a {
		if a[i].Decision.Proxy != b[i].Decision.Proxy || a[i].Dst != b[i].Dst {
			t.Fatalf("nondeterministic assignment %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The §6 path end to end, as examples/storage runs it: the application
// declares a reconstruction read, AssignIncasts relays it through the
// registered proxy with the scheme asked for, and the assigned flows run.
func TestAssignedStorageReadRunsInSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	o := New(1)
	proxy := workload.HostRef{DC: 0, Host: 63}
	o.Register(Proxy{Ref: proxy})
	declared, _ := workload.StorageReconstruction(workload.StorageReconstructionConfig{
		Fragments: 4, FragmentBytes: 10 * units.MB, Orchestrator: workload.HostRef{DC: 1, Host: 0},
	}, 1)
	flows, _, err := o.AssignIncasts(declared, workload.ProxyStreamlined)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Via == nil || *f.Via != (workload.ProxyRef{Scheme: workload.ProxyStreamlined, At: proxy}) {
			t.Fatalf("flow %d not relayed as asked: %+v", f.ID, f.Via)
		}
	}
	res, err := workload.RunScenario(workload.Scenario{Flows: flows, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Done) != len(flows) {
		t.Fatalf("assigned read incomplete: %d of %d flows done", len(res.Done), len(flows))
	}
}
