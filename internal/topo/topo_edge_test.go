package topo

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// Boundary fabrics the sweep grids never exercise, pinned so the analytical
// model (internal/model) and the simulator agree on the degenerate cases.

func singleLeafConfig() Config {
	return Config{
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

// A host's path to itself has no links: zero RTT, zero bottleneck rate.
func TestPathToSelfIsEmpty(t *testing.T) {
	net := Build(sim.New(), DefaultConfig())
	h := net.Hosts[0][0]
	if rtt := net.PathRTT(h, h, 1500, 64); rtt != 0 {
		t.Errorf("PathRTT(a,a) = %v, want 0", rtt)
	}
	if rate := net.BottleneckRate(h, h); rate != 0 {
		t.Errorf("BottleneckRate(a,a) = %v, want 0", rate)
	}
}

// A single-leaf DC collapses the intra-DC path to host-leaf-host: two
// links each way. The sum spelled out here is what the analytical model's
// PathRTTs asks Config.PathRTT for on its up-leg; drifting from it would
// silently skew every fast-sweep proxy prediction on such fabrics.
func TestSingleLeafPathRTTClosedForm(t *testing.T) {
	cfg := singleLeafConfig()
	net := Build(sim.New(), cfg)
	a, b := net.Hosts[0][0], net.Hosts[0][1]

	const fwd, rev units.ByteSize = 1500, 64
	perLink := cfg.LinkRate.TransmitTime(fwd) + cfg.LinkRate.TransmitTime(rev)
	want := 2*(2*cfg.IntraDelay) + 2*perLink
	if got := net.PathRTT(a, b, fwd, rev); got != want {
		t.Errorf("same-ToR PathRTT = %v, want closed-form %v", got, want)
	}
	if rate := net.BottleneckRate(a, b); rate != cfg.LinkRate {
		t.Errorf("uniform fabric bottleneck = %v, want %v", rate, cfg.LinkRate)
	}

	// Cross-DC from the single leaf: host-leaf, leaf-spine, spine-backbone,
	// then the mirrored descent — 4 intra + 2 inter links.
	recv := net.Hosts[1][0]
	wantCross := 2*(4*cfg.IntraDelay+2*cfg.InterDelay) + 6*perLink
	if got := net.PathRTT(a, recv, fwd, rev); got != wantCross {
		t.Errorf("cross-DC PathRTT = %v, want closed-form %v", got, wantCross)
	}
}

// Every host pair in a built single-leaf fabric must be mutually reachable
// (a zero PathRTT would mean the degenerate shape is counted as cut off).
func TestSingleLeafFullReachability(t *testing.T) {
	net := Build(sim.New(), singleLeafConfig())
	for dc := range net.Hosts {
		for _, h := range net.Hosts[dc] {
			if h == net.Hosts[0][0] {
				continue
			}
			if rtt := net.PathRTT(net.Hosts[0][0], h, 1500, 64); rtt <= 0 {
				t.Errorf("host %v unreachable from Hosts[0][0]", h.ID())
			}
		}
	}
}
