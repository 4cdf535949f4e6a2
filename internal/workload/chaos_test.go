package workload

import (
	"reflect"
	"testing"

	"incastproxy/internal/faults"
	"incastproxy/internal/units"
)

// quickChaos crashes the primary proxy mid-incast of a degree-4, 8 MB
// streamlined run.
func quickChaos(mode FailoverMode) ChaosSpec {
	return ChaosSpec{
		Incast:         quickSpec(ProxyStreamlined),
		CrashAt:        500 * units.Microsecond,
		DetectionDelay: 300 * units.Microsecond,
		Mode:           mode,
	}
}

func crashCount(tl []faults.Event) int {
	n := 0
	for _, ev := range tl {
		if ev.Kind == faults.HostCrash && ev.Phase == faults.Injected {
			n++
		}
	}
	return n
}

func TestChaosValidate(t *testing.T) {
	bad := quickChaos(FailoverStandby)
	bad.CrashAt = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("CrashAt=0 must be rejected")
	}
	bad = quickChaos(FailoverStandby)
	bad.Incast.Degree = 63 // 64 hosts per DC: no room for primary + standby
	if err := bad.Validate(); err == nil {
		t.Fatal("degree leaving no standby host must be rejected")
	}
	bad.Mode = FailoverDirect // direct needs no standby host
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosFailoverStandbyCompletes(t *testing.T) {
	res, err := RunChaos(quickChaos(FailoverStandby))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incast did not complete despite standby failover")
	}
	if res.FailedOver == 0 || res.RehomedBytes == 0 {
		t.Fatalf("crash mid-incast must strand flows: failedOver=%d rehomed=%v",
			res.FailedOver, res.RehomedBytes)
	}
	if crashCount(res.Timeline) != 1 {
		t.Fatalf("timeline = %v", res.Timeline)
	}
	// Completion cannot precede the controller's reaction.
	if res.ICT < 800*units.Microsecond {
		t.Fatalf("ICT %v earlier than crash+detection", res.ICT)
	}
	if res.FlowFCT.N != 4 || res.FlowFCT.Max > res.ICT {
		t.Fatalf("FlowFCT %v must cover all 4 flows within ICT %v", res.FlowFCT, res.ICT)
	}
}

func TestChaosFailoverDirectCompletes(t *testing.T) {
	res, err := RunChaos(quickChaos(FailoverDirect))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.FailedOver == 0 {
		t.Fatalf("completed=%v failedOver=%d", res.Completed, res.FailedOver)
	}
	if res.FlowFCT.N != 4 || res.FlowFCT.Max > res.ICT {
		t.Fatalf("FlowFCT %v must cover all 4 flows within ICT %v", res.FlowFCT, res.ICT)
	}
}

// FCT under proxy failure must stay bounded relative to the no-proxy
// baseline: failover pays the detection delay plus (at worst) a baseline-like
// retransfer of the remaining bytes, not an open-ended stall.
func TestChaosFCTBoundedVsBaseline(t *testing.T) {
	base, err := Run(quickSpec(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	baseICT := base.Runs[0].ICT

	for _, mode := range []FailoverMode{FailoverStandby, FailoverDirect} {
		res, err := RunChaos(quickChaos(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		spec := quickChaos(mode)
		bound := spec.CrashAt + spec.DetectionDelay + 3*baseICT
		if res.ICT > bound {
			t.Fatalf("%v: chaos ICT %v exceeds bound %v (baseline %v)",
				mode, res.ICT, bound, baseICT)
		}
	}
}

func TestChaosNoFailoverRecoversOnRestart(t *testing.T) {
	spec := quickChaos(FailoverNone)
	spec.RestartAfter = 2 * units.Millisecond
	res, err := RunChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("flows must recover by RTO once the proxy restarts")
	}
	if res.FailedOver != 0 {
		t.Fatalf("mode none re-homed %d flows", res.FailedOver)
	}
	if res.ICT < spec.CrashAt+spec.RestartAfter {
		t.Fatalf("ICT %v precedes the restart", res.ICT)
	}
	if res.Timeouts == 0 {
		t.Fatal("the outage must be bridged by RTOs")
	}
}

func TestChaosNoFailoverNoRestartStalls(t *testing.T) {
	spec := quickChaos(FailoverNone)
	spec.Incast.MaxSimTime = 2 * units.Second // don't wait 60 simulated seconds
	res, err := RunChaos(spec)
	if err == nil || res.Completed {
		t.Fatalf("dead proxy with no failover completed: %+v", res.RunResult)
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	run := func() *ChaosResult {
		spec := quickChaos(FailoverStandby)
		spec.BlackholeAt = 300 * units.Microsecond
		spec.BlackholeDur = 200 * units.Microsecond
		res, err := RunChaos(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ICT != b.ICT || a.FailedOver != b.FailedOver || a.RehomedBytes != b.RehomedBytes ||
		a.PktsSent != b.PktsSent || a.Events != b.Events {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.RunResult, b.RunResult)
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatalf("timelines diverged:\n%v\n%v", a.Timeline, b.Timeline)
	}
}
