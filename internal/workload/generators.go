package workload

import (
	"incastproxy/internal/netsim"
	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

// The generators below synthesize the §2 motivating workloads as flow sets
// for RunScenario. Each returns flows with IDs starting at firstID and
// reports the next free ID.

// MoEConfig describes a Mixture-of-Experts all-to-all exchange spanning two
// datacenters: experts 0..LocalExperts-1 live in DC0 and the rest in DC1.
// In each dispatch (and combine) phase every expert sends BytesPerPair to
// every other expert, so each expert is simultaneously the receiver of a
// (LocalExperts+RemoteExperts-1)-degree incast (§2: "each expert
// simultaneously receives inputs from many senders").
type MoEConfig struct {
	LocalExperts, RemoteExperts int
	BytesPerPair                units.ByteSize
	// Phases is the number of dispatch+combine rounds; Period separates
	// round starts (ML training synchronization is periodic, §6).
	Phases int
	Period units.Duration
	// ProxyCrossDC relays every cross-datacenter flow through the given
	// proxy scheme at the sending side's proxy host (one per DC).
	ProxyCrossDC *Scheme
	ProxyHost    [2]int // proxy host index per DC (used when ProxyCrossDC != nil)
}

// MoEAllToAll expands the config into flows.
func MoEAllToAll(cfg MoEConfig, firstID netsim.FlowID) ([]FlowSpec, netsim.FlowID) {
	expert := func(i int) HostRef {
		if i < cfg.LocalExperts {
			return HostRef{DC: 0, Host: i}
		}
		return HostRef{DC: 1, Host: i - cfg.LocalExperts}
	}
	total := cfg.LocalExperts + cfg.RemoteExperts
	var flows []FlowSpec
	id := firstID
	for phase := 0; phase < cfg.Phases; phase++ {
		start := units.Duration(phase) * cfg.Period
		for s := 0; s < total; s++ {
			for d := 0; d < total; d++ {
				if s == d {
					continue
				}
				f := FlowSpec{
					ID:    id,
					Src:   expert(s),
					Dst:   expert(d),
					Bytes: cfg.BytesPerPair,
					Start: start,
				}
				if cfg.ProxyCrossDC != nil && f.Src.DC != f.Dst.DC {
					f.Via = &ProxyRef{
						Scheme: *cfg.ProxyCrossDC,
						At:     HostRef{DC: f.Src.DC, Host: cfg.ProxyHost[f.Src.DC]},
					}
				}
				flows = append(flows, f)
				id++
			}
		}
	}
	return flows, id
}

// StorageReconstructionConfig models erasure-coded fragment reconstruction
// (§2): an orchestrator in DC1 reads Fragments surviving fragments of
// FragmentBytes each from servers in DC0 to rebuild a lost one — a single
// cross-datacenter incast of degree Fragments.
type StorageReconstructionConfig struct {
	Fragments     int
	FragmentBytes units.ByteSize
	Orchestrator  HostRef // typically in DC1
	Via           *ProxyRef
}

// StorageReconstruction expands the config into flows (senders are DC0
// hosts 0..Fragments-1, skipping the proxy host if it is among them).
func StorageReconstruction(cfg StorageReconstructionConfig, firstID netsim.FlowID) ([]FlowSpec, netsim.FlowID) {
	var flows []FlowSpec
	id := firstID
	host := 0
	for i := 0; i < cfg.Fragments; i++ {
		if cfg.Via != nil && cfg.Via.At.DC == 0 && host == cfg.Via.At.Host {
			host++ // the proxy host holds no fragment
		}
		flows = append(flows, FlowSpec{
			ID:    id,
			Src:   HostRef{DC: 0, Host: host},
			Dst:   cfg.Orchestrator,
			Bytes: cfg.FragmentBytes,
			Via:   cfg.Via,
		})
		id++
		host++
	}
	return flows, id
}

// QuorumSyncConfig models a strongly consistent geo-replicated store (§2):
// Replicas in DC0 push WriteBytes of log each to the primary in DC1 to
// acknowledge a quorum write — another cross-datacenter incast.
type QuorumSyncConfig struct {
	Replicas   int
	WriteBytes units.ByteSize
	Primary    HostRef
	Via        *ProxyRef
}

// BackgroundTraffic generates n random host-to-host flows (uniformly mixed
// intra- and inter-DC) that share the fabric with an experiment — the
// cross-traffic ablation asking whether the proxy benefit survives a busy
// network. Sources and destinations avoid the reserved hosts (typically
// the incast's senders/receiver/proxy).
func BackgroundTraffic(n int, bytes units.ByteSize, hostsPerDC int,
	reserved map[HostRef]bool, seed int64, firstID netsim.FlowID) ([]FlowSpec, netsim.FlowID) {
	src := rng.New(seed)
	pick := func() HostRef {
		for {
			h := HostRef{DC: src.Intn(2), Host: src.Intn(hostsPerDC)}
			if !reserved[h] {
				return h
			}
		}
	}
	var flows []FlowSpec
	id := firstID
	for i := 0; i < n; i++ {
		a := pick()
		b := pick()
		for b == a {
			b = pick()
		}
		flows = append(flows, FlowSpec{
			ID:    id,
			Src:   a,
			Dst:   b,
			Bytes: bytes,
			Start: units.Duration(src.Intn(1000)) * units.Microsecond,
		})
		id++
	}
	return flows, id
}

// QuorumSync expands the config into flows: the same DC0-hosts-to-one-host
// incast as a storage reconstruction, with replicas for fragments.
func QuorumSync(cfg QuorumSyncConfig, firstID netsim.FlowID) ([]FlowSpec, netsim.FlowID) {
	return StorageReconstruction(StorageReconstructionConfig{
		Fragments: cfg.Replicas, FragmentBytes: cfg.WriteBytes, Orchestrator: cfg.Primary, Via: cfg.Via,
	}, firstID)
}
