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
	dcShard   [2]int
	bbShard   []int
}

// PlanShards validates and computes the shard assignment for cfg. n beyond
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
	p := ShardPlan{Shards: n, Lookahead: cfg.InterDelay, bbShard: make([]int, cfg.Backbones)}
	switch {
	case n == 1:
		// Everything stays on shard 0.
	case n == 2:
		p.dcShard = [2]int{0, 1}
		for b := range p.bbShard {
			p.bbShard[b] = b % 2
		}
	default:
		p.dcShard = [2]int{0, 1}
		for b := range p.bbShard {
			p.bbShard[b] = 2 + b%(n-2)
		}
	}
	return p, nil
}

// DCShard returns the shard owning every node of datacenter dc.
func (p ShardPlan) DCShard(dc int) int { return p.dcShard[dc] }

// BackboneShard returns the shard owning backbone router b.
func (p ShardPlan) BackboneShard(b int) int { return p.bbShard[b] }

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
	if p.Shards == 1 {
		return
	}
	for b, bb := range net.Backbones {
		bbShard := p.bbShard[b]
		for _, port := range bb.Ports() {
			peerShard := p.shardOfSpinePeer(net, port.Peer().Owner())
			bindCut(g, port, bbShard, peerShard)
			bindCut(g, port.Peer(), peerShard, bbShard)
		}
	}
}

// shardOfSpinePeer resolves the shard of a backbone port's peer, which is
// always a spine switch in one of the DCs.
func (p ShardPlan) shardOfSpinePeer(net *Network, node netsim.Node) int {
	for dc := 0; dc < 2; dc++ {
		for _, s := range net.Spines[dc] {
			if s == node {
				return p.dcShard[dc]
			}
		}
	}
	panic(fmt.Sprintf("topo: backbone peer %s is not a spine", node.Name()))
}

// bindCut installs the handoff for one direction of a cut link (transmitting
// port on shard src, receiving side on shard dst). Same-shard directions
// (e.g. a backbone co-located with one DC under n=2) keep local scheduling.
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
