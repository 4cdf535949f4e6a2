package topo

import (
	"fmt"

	"incastproxy/internal/netsim"
	"incastproxy/internal/sim"
	"incastproxy/internal/units"
)

// ShardPlan maps the two-DC fabric onto event shards for the conservative
// parallel engine (sim.ShardGroup). The partition follows the physics: the
// only links with enough propagation delay to serve as shard boundaries are
// the long-haul spine<->backbone links (InterDelay, 1 ms by default), so
// every in-DC node must stay with its datacenter and only the backbone
// routers can be split further:
//
//	n = 1  everything on shard 0 (still runs through the group machinery,
//	       so byte-identity across shard counts is testable)
//	n = 2  DC0 -> shard 0, DC1 -> shard 1, backbone b -> b mod 2
//	n >= 3 DC0 -> shard 0, DC1 -> shard 1, backbone b -> 2 + b mod (n-2)
//
// Every cut link is then an InterDelay link, which makes InterDelay the
// group lookahead.
type ShardPlan struct {
	Shards    int
	Lookahead units.Duration
}

// PlanShards validates an n-shard assignment for cfg. n beyond
// 2+Backbones would leave empty shards (there are only that many separable
// components), and n > 1 needs a positive InterDelay to serve as lookahead.
func PlanShards(cfg Config, n int) (ShardPlan, error) {
	if n < 1 {
		return ShardPlan{}, fmt.Errorf("topo: shard count must be >= 1, got %d", n)
	}
	if max := 2 + cfg.Backbones; n > max {
		return ShardPlan{}, fmt.Errorf("topo: %d shards exceed the %d separable components (2 DCs + %d backbones)",
			n, max, cfg.Backbones)
	}
	if n > 1 && cfg.InterDelay <= 0 {
		return ShardPlan{}, fmt.Errorf("topo: sharding needs positive InterDelay for lookahead, got %v", cfg.InterDelay)
	}
	return ShardPlan{Shards: n, Lookahead: cfg.InterDelay}, nil
}

// DCShard returns the shard owning every node of datacenter dc.
func (p ShardPlan) DCShard(dc int) int {
	if p.Shards == 1 {
		return 0
	}
	return dc
}

// BackboneShard returns the shard owning backbone router b.
func (p ShardPlan) BackboneShard(b int) int {
	switch p.Shards {
	case 1:
		return 0
	case 2:
		return b % 2
	}
	return 2 + b%(p.Shards-2)
}

// NewGroup builds the shard group sized for the plan.
func (p ShardPlan) NewGroup(workers int) *sim.ShardGroup {
	la := p.Lookahead
	if p.Shards == 1 && la <= 0 {
		// A single shard has no cut links; any positive lookahead works.
		la = units.Microsecond
	}
	return sim.NewShardGroup(p.Shards, la, workers)
}

// BindShards installs cross-shard handoffs on every cut link of the built
// fabric: a boundary port's deliveries are posted through the group's
// deterministic merge queues instead of the local event heap. It panics if
// any cut link's propagation delay is shorter than the group lookahead —
// that would let a cross-shard packet arrive inside the current round's
// horizon, which the conservative barrier cannot represent.
func BindShards(net *Network, g *sim.ShardGroup, p ShardPlan) {
	if g.Shards() != p.Shards {
		panic(fmt.Sprintf("topo: group has %d shards but plan has %d", g.Shards(), p.Shards))
	}
	for b, bb := range net.Backbones {
		for dc, port := range bb.Ports() { // port dc faces a spine of DC dc
			bindCut(g, port, p.BackboneShard(b), p.DCShard(dc))
			bindCut(g, port.Peer(), p.DCShard(dc), p.BackboneShard(b))
		}
	}
}

// bindCut installs the handoff for one direction of a cut link (transmitting
// port on shard src, receiving side on shard dst). Same-shard directions
// (every link under n=1, a backbone co-located with one DC under n=2) keep
// local scheduling.
func bindCut(g *sim.ShardGroup, port *netsim.Port, src, dst int) {
	if src == dst {
		return
	}
	if port.Delay() < g.Lookahead() {
		panic(fmt.Sprintf("topo: cut link %s delay %v is below the %v lookahead",
			port.Label(), port.Delay(), g.Lookahead()))
	}
	deliver := port.Peer().Delivery()
	port.SetHandoff(func(at units.Time, pkt *netsim.Packet) {
		g.Post(src, dst, at, netsim.DeliveryKey(pkt), deliver, pkt)
	})
}
