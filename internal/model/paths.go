package model

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/topo"
	"incastproxy/internal/transport"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// PathRTTs derives the model's three base RTTs from a fabric configuration,
// without building the fabric, by asking topo's closed form (the one
// topo.Network.PathRTT evaluates) for a full data packet forward and a
// control packet back over each path's link counts:
//
//   - direct: sender -> receiver across DCs (4 intra + 2 inter links:
//     host-leaf, leaf-spine, spine-backbone, and the mirrored descent);
//   - up: sender -> proxy inside the sending DC (4 intra links, or 2 when a
//     single-leaf DC puts them under the same ToR);
//   - down: proxy -> receiver across DCs (4 intra + 2 inter, like direct).
func PathRTTs(cfg topo.Config, mss units.ByteSize) (direct, up, down units.Duration) {
	upIntra := 4
	if cfg.Leaves == 1 {
		// Single-leaf DC: the first sender and the proxy (the DC's last
		// host) share a ToR; the path is host-leaf-host.
		upIntra = 2
	}
	direct = cfg.PathRTT(4, 2, mss, netsim.ControlSize)
	return direct, cfg.PathRTT(upIntra, 0, mss, netsim.ControlSize), direct
}

// FromSpec maps a full simulation spec onto the model's parameter set,
// deriving path RTTs, window sizing, and buffer depth from the spec's
// topology the same way the workload harness does when it builds flows. The
// returned Params predict the spec's first run; run-to-run spray noise is
// what the DES's repeated seeds measure and the model cannot.
//
// SchemeAdaptive is rejected — the controller re-steers mid-epoch, which no
// single closed form covers; evaluate its two candidate outcomes with
// Compare instead.
func FromSpec(spec workload.Spec) (Params, error) {
	if spec.Scheme == workload.SchemeAdaptive {
		return Params{}, fmt.Errorf("model: SchemeAdaptive is not modeled (it re-steers mid-epoch); use Compare on its candidate paths")
	}
	if err := spec.Validate(); err != nil {
		return Params{}, err
	}
	cfg := spec.Topo
	if cfg.Spines == 0 {
		cfg = topo.DefaultConfig()
	}
	direct, up, down := PathRTTs(cfg, transport.DefaultMSS)
	p := Params{
		Scheme:       spec.Scheme,
		Degree:       spec.Degree,
		TotalBytes:   spec.TotalBytes,
		DirectRTT:    direct,
		ProxyUpRTT:   up,
		ProxyDownRTT: down,
		Rate:         cfg.LinkRate,
		Buffer:       cfg.TorQueue.Capacity,
		FanIn:        cfg.Spines,
		MSS:          transport.DefaultMSS,
		IWScale:      spec.IWScale,
		IncastDelay:  spec.IncastDelay,
	}
	if spec.CrossTraffic.Flows > 0 {
		p.CrossBytes = units.ByteSize(spec.CrossTraffic.Flows) * spec.CrossTraffic.Bytes
	}
	return p, nil
}
