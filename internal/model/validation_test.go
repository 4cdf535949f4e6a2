package model

import (
	"math"
	"testing"

	"incastproxy/internal/topo"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// relErr is |model-sim|/sim; sim==0 only for degenerate cells we never assert.
func relErr(sim, mod units.Duration) float64 {
	if sim == 0 {
		return 0
	}
	return math.Abs(float64(mod)-float64(sim)) / float64(sim)
}

// validationCell pins the model against one full DES run. Bound applies to
// the ICT and tail-FCT errors; p50Bound (when set) loosens the median, whose
// straggler spread the closed form only approximates; trimBound (when set)
// holds the simulated proxy-ToR trim count to within that fraction of the
// predicted Trims.
type validationCell struct {
	name      string
	scheme    workload.Scheme
	deg       int
	size      units.ByteSize
	lat       units.Duration
	cross     int // cross-traffic flows of 40 MB each, IncastDelay 2 ms
	bound     float64
	p50Bound  float64
	trimBound float64
}

// Per-regime bounds, calibrated against seed-7 runs (see DESIGN.md §13):
// no-loss cells agree to <0.1% (assert 10%); overflow cells to <12% with p50
// within 16% (assert 25%); sustained baseline to <10%/<17% (assert 25%);
// standard proxy cells to <10% (assert 20%); cross-traffic cells run +14..23%
// conservative (assert 30%). The 100 us streamlined band with large
// share-to-window ratios is seed-dependent straggler territory — the model is
// a deliberate lower bound there, pinned loosely to detect regressions.
// Trims on the 40 MB streamlined cells (38,714 / 139,003 / 138,568 simulated
// at degrees 4 / 8 / 16 against 52.7k / 153.0k / 153.0k predicted; assert 40%):
// the count follows alpha = (fan-in - 1)*64/1500 and stops growing with degree
// at the spine count, which is what trim->NACK churn predicts and a
// duplicate-NACK bug would not.
func validationGrid() []validationCell {
	ms := units.Millisecond
	us := units.Microsecond
	return []validationCell{
		// --- no-loss: burst fits the ToR buffer, pure pipeline time.
		{name: "noloss-deg1", scheme: workload.Baseline, deg: 1, size: 100 * units.MB, lat: ms, bound: 0.10},
		{name: "noloss-deg4-small", scheme: workload.Baseline, deg: 4, size: 10 * units.MB, lat: ms, bound: 0.10},
		// --- first-RTT overflow: burst overshoots, go-back-N recovery.
		{name: "overflow-deg4", scheme: workload.Baseline, deg: 4, size: 100 * units.MB, lat: ms, bound: 0.25},
		{name: "overflow-deg8", scheme: workload.Baseline, deg: 8, size: 40 * units.MB, lat: ms, bound: 0.25},
		{name: "overflow-deg16", scheme: workload.Baseline, deg: 16, size: 40 * units.MB, lat: ms, bound: 0.25},
		{name: "overflow-10ms", scheme: workload.Baseline, deg: 4, size: 40 * units.MB, lat: 10 * ms, bound: 0.25},
		// --- sustained overload at short RTT: demand outlasts the window.
		{name: "sustained-1us", scheme: workload.Baseline, deg: 4, size: 100 * units.MB, lat: us, bound: 0.25},
		{name: "sustained-100us", scheme: workload.Baseline, deg: 4, size: 100 * units.MB, lat: 100 * us, bound: 0.25},
		// --- proxied: split-RTT pipelining, header-trim churn.
		{name: "proxy-deg2", scheme: workload.ProxyStreamlined, deg: 2, size: 40 * units.MB, lat: ms, bound: 0.20},
		{name: "proxy-deg4", scheme: workload.ProxyStreamlined, deg: 4, size: 100 * units.MB, lat: ms, bound: 0.20},
		{name: "proxy-deg4-40MB", scheme: workload.ProxyStreamlined, deg: 4, size: 40 * units.MB, lat: ms, bound: 0.20, trimBound: 0.40},
		{name: "proxy-deg8", scheme: workload.ProxyStreamlined, deg: 8, size: 40 * units.MB, lat: ms, bound: 0.20, trimBound: 0.40},
		{name: "proxy-deg16", scheme: workload.ProxyStreamlined, deg: 16, size: 40 * units.MB, lat: ms, bound: 0.20, trimBound: 0.40},
		{name: "proxy-10ms", scheme: workload.ProxyStreamlined, deg: 4, size: 40 * units.MB, lat: 10 * ms, bound: 0.20},
		{name: "proxy-100us", scheme: workload.ProxyStreamlined, deg: 4, size: 40 * units.MB, lat: 100 * us, bound: 0.20},
		{name: "naive-deg4", scheme: workload.ProxyNaive, deg: 4, size: 100 * units.MB, lat: ms, bound: 0.20},
		{name: "naive-deg8", scheme: workload.ProxyNaive, deg: 8, size: 40 * units.MB, lat: ms, bound: 0.20},
		// --- cross-traffic sharing the proxy's long-haul path.
		{name: "cross-proxy", scheme: workload.ProxyStreamlined, deg: 4, size: 40 * units.MB, lat: ms, cross: 2, bound: 0.30},
		// --- known-loose band: 100 us streamlined with share >> window;
		// seed-dependent straggler timeouts make the sim non-monotone in
		// degree here and the model is a lower bound (DESIGN.md §13).
		{name: "loose-100us-deg2", scheme: workload.ProxyStreamlined, deg: 2, size: 100 * units.MB, lat: 100 * us, bound: 0.30},
		{name: "loose-100us-deg4", scheme: workload.ProxyStreamlined, deg: 4, size: 100 * units.MB, lat: 100 * us, bound: 0.60, p50Bound: 0.60},
	}
}

// TestModelAgainstSimulator cross-validates every Predict regime against the
// packet-level DES and fails if any cell drifts past its calibrated bound —
// the acceptance gate for using the model as a steering oracle and fast
// sweep backend.
func TestModelAgainstSimulator(t *testing.T) {
	for _, c := range validationGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := topo.DefaultConfig()
			cfg.InterDelay = c.lat
			sp := workload.Spec{Scheme: c.scheme, Degree: c.deg, TotalBytes: c.size,
				Runs: 1, Seed: 7, Topo: cfg}
			if c.cross > 0 {
				sp.CrossTraffic = workload.CrossTrafficSpec{Flows: c.cross, Bytes: 40 * units.MB}
				sp.IncastDelay = 2 * units.Millisecond
			}
			res, err := workload.Run(sp)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			prm, err := FromSpec(sp)
			if err != nil {
				t.Fatalf("FromSpec: %v", err)
			}
			pred := Predict(prm)
			rr := res.Runs[0]

			p50Bound := c.p50Bound
			if p50Bound == 0 {
				p50Bound = c.bound
			}
			if e := relErr(rr.ICT, pred.ICT); e > c.bound {
				t.Errorf("ICT: sim=%v model=%v err=%.1f%% > %.0f%%",
					rr.ICT, pred.ICT, 100*e, 100*c.bound)
			}
			if e := relErr(rr.FlowFCT.P99, pred.P99); e > c.bound {
				t.Errorf("p99 FCT: sim=%v model=%v err=%.1f%% > %.0f%%",
					rr.FlowFCT.P99, pred.P99, 100*e, 100*c.bound)
			}
			if e := relErr(rr.FlowFCT.P50, pred.P50); e > p50Bound {
				t.Errorf("p50 FCT: sim=%v model=%v err=%.1f%% > %.0f%%",
					rr.FlowFCT.P50, pred.P50, 100*e, 100*p50Bound)
			}
			if sum := prm.IncastDelay + pred.Prop + pred.Serve + pred.Churn + pred.Stall + pred.Spread; sum != pred.ICT {
				t.Errorf("terms sum to %v, ICT is %v: %+v", sum, pred.ICT, pred)
			}
			if c.trimBound > 0 {
				sim, mod := float64(rr.ProxyToRTrims), float64(pred.Trims)
				if e := math.Abs(sim-mod) / mod; e > c.trimBound {
					t.Errorf("proxy-ToR trims: sim=%.0f model=%.0f err=%.1f%% > %.0f%%",
						sim, mod, 100*e, 100*c.trimBound)
				}
			}
		})
	}
}

// TestModelBoundaryAgainstSimulator pins the degenerate fabrics the sweep
// grids never visit: a single-leaf DC (sender and proxy under one ToR) and a
// one-sender "incast". With one flow and no convergence there is no loss, so
// model and sim must agree tightly even on this uncalibrated topology.
func TestModelBoundaryAgainstSimulator(t *testing.T) {
	for _, scheme := range []workload.Scheme{workload.Baseline, workload.ProxyStreamlined} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			sp := workload.Spec{Scheme: scheme, Degree: 1, TotalBytes: 10 * units.MB,
				Runs: 1, Seed: 7, Topo: singleLeafConfig()}
			res, err := workload.Run(sp)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			prm, err := FromSpec(sp)
			if err != nil {
				t.Fatalf("FromSpec: %v", err)
			}
			pred := Predict(prm)
			rr := res.Runs[0]
			if rr.Timeouts != 0 {
				t.Fatalf("one-sender boundary run timed out %d times; premise broken", rr.Timeouts)
			}
			if e := relErr(rr.ICT, pred.ICT); e > 0.10 {
				t.Errorf("ICT: sim=%v model=%v err=%.1f%% > 10%%", rr.ICT, pred.ICT, 100*e)
			}
			if e := relErr(rr.FlowFCT.P99, pred.P99); e > 0.10 {
				t.Errorf("p99: sim=%v model=%v err=%.1f%% > 10%%", rr.FlowFCT.P99, pred.P99, 100*e)
			}
		})
	}
}
