package sim

import (
	"fmt"
	"reflect"
	"testing"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// tokenNet is a synthetic cross-shard workload: N nodes pass tokens around a
// ring, every hop taking exactly the lookahead delay. Each node keeps its
// own execution log; a correct barrier produces identical per-node logs at
// every shard count and worker count, because each hop's arrival carries an
// intrinsic tie-break key (a mix of token and hop), never the scheduling
// order.
type tokenNet struct {
	g     *ShardGroup
	shard []int // node -> shard
	logs  [][]string
	hops  int
}

func tokenKey(token, hop int) uint64 {
	x := uint64(token)<<32 | uint64(hop) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newTokenNet(nodes int, shardOf func(node int) int, shards, workers, hops int, la units.Duration) *tokenNet {
	n := &tokenNet{
		g:     NewShardGroup(shards, la, workers),
		shard: make([]int, nodes),
		logs:  make([][]string, nodes),
		hops:  hops,
	}
	for i := range n.shard {
		n.shard[i] = shardOf(i)
	}
	return n
}

// inject schedules token's arrival at node at time at, crossing shards when
// needed.
func (n *tokenNet) inject(from, node, token, hop int, at units.Time) {
	fn := Event(func(e *Engine) { n.arrive(e, node, token, hop) })
	key := tokenKey(token, hop)
	if src, dst := n.shard[from], n.shard[node]; src != dst {
		n.g.Post(src, dst, at, key, fn, nil)
	} else {
		n.g.Engine(dst).ScheduleHandler(at, key, fn, nil)
	}
}

func (n *tokenNet) arrive(e *Engine, node, token, hop int) {
	n.logs[node] = append(n.logs[node], fmt.Sprintf("t=%d tok=%d hop=%d", e.Now(), token, hop))
	if hop >= n.hops {
		return
	}
	next := (node + 1) % len(n.logs)
	n.inject(node, next, token, hop+1, e.Now().Add(n.g.Lookahead()))
}

func (n *tokenNet) start(tokens int) {
	for tok := 0; tok < tokens; tok++ {
		node := tok % len(n.logs)
		n.g.Engine(n.shard[node]).ScheduleHandler(1, tokenKey(tok, 0),
			Event(func(e *Engine) { n.arrive(e, node, tok, 0) }), nil)
	}
}

// Every partition and worker count must produce identical per-node logs and
// identical aggregate event counts. This is the core conservative-lookahead
// correctness property.
func TestShardGroupDeterministicAcrossPartitions(t *testing.T) {
	const nodes, tokens, hops = 4, 8, 12
	const la = units.Duration(10)

	type config struct {
		name    string
		shards  int
		workers int
		shardOf func(int) int
	}
	configs := []config{
		{"1shard", 1, 1, func(int) int { return 0 }},
		{"2shard-1w", 2, 1, func(i int) int { return i % 2 }},
		{"2shard-2w", 2, 2, func(i int) int { return i % 2 }},
		{"4shard-4w", 4, 4, func(i int) int { return i }},
	}

	var refLogs [][]string
	var refProcessed, refScheduled uint64
	for i, c := range configs {
		n := newTokenNet(nodes, c.shardOf, c.shards, c.workers, hops, la)
		n.start(tokens)
		n.g.Run()
		if i == 0 {
			refLogs = n.logs
			refProcessed = n.g.Processed()
			refScheduled = n.g.Scheduled()
			continue
		}
		if !reflect.DeepEqual(n.logs, refLogs) {
			t.Errorf("%s: per-node logs diverge from single-shard run\n got: %v\nwant: %v",
				c.name, n.logs, refLogs)
		}
		if n.g.Processed() != refProcessed {
			t.Errorf("%s: processed = %d, want %d", c.name, n.g.Processed(), refProcessed)
		}
		if n.g.Scheduled() != refScheduled {
			t.Errorf("%s: scheduled = %d, want %d", c.name, n.g.Scheduled(), refScheduled)
		}
	}
}

// Same-instant cross-shard arrivals at one node must order by key, not by
// which source shard posted first.
func TestShardGroupMergesSameInstantArrivalsByKey(t *testing.T) {
	g := NewShardGroup(3, 5, 3)
	var order []uint64
	// Shards 1 and 2 both post to shard 0 for the same instant; keys are
	// chosen opposite to source order.
	arrival := func(key uint64) Event {
		return func(*Engine) { order = append(order, key) }
	}
	g.Engine(1).Schedule(0, func(e *Engine) { g.Post(1, 0, 10, 200, arrival(200), nil) })
	g.Engine(2).Schedule(0, func(e *Engine) { g.Post(2, 0, 10, 100, arrival(100), nil) })
	g.Run()
	if len(order) != 2 || order[0] != 100 || order[1] != 200 {
		t.Fatalf("arrival order = %v, want [100 200]", order)
	}
}

func TestShardGroupPostViolatingLookaheadPanics(t *testing.T) {
	g := NewShardGroup(2, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Post inside the lookahead window did not panic")
		}
	}()
	g.Post(0, 1, 5, 1, Event(func(*Engine) {}), nil) // shard 0 is at t=0; 5 < 0+10
}

func TestNewShardGroupValidation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		lookahead units.Duration
	}{
		{"zero shards", 0, 10},
		{"zero lookahead", 2, 0},
		{"negative lookahead", 2, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewShardGroup did not panic", tc.name)
				}
			}()
			NewShardGroup(tc.n, tc.lookahead, 1)
		}()
	}
}

// RunUntil with a finite deadline advances every shard clock to the
// deadline, mirroring Engine.RunUntil's contract.
func TestShardGroupRunUntilAdvancesAllClocks(t *testing.T) {
	g := NewShardGroup(3, 7, 3)
	g.Engine(0).Schedule(3, func(*Engine) {})
	end := g.RunUntil(1000)
	if end != 1000 {
		t.Fatalf("RunUntil(1000) = %v, want 1000", end)
	}
	for i := 0; i < g.Shards(); i++ {
		if now := g.Engine(i).Now(); now != 1000 {
			t.Fatalf("shard %d clock = %v, want 1000", i, now)
		}
	}
}

// A group stop is quantized to the barrier: the requesting round completes
// on every shard, pending cross events are still injected exactly once, and
// the stop is consumed so a later run resumes.
func TestShardGroupRequestStopQuantizedToRound(t *testing.T) {
	const la = units.Duration(10)
	g := NewShardGroup(2, la, 2)
	var ran []string
	g.Engine(0).Schedule(1, func(e *Engine) {
		ran = append(ran, "first")
		g.Post(0, 1, e.Now().Add(la), 1, Event(func(*Engine) { ran = append(ran, "cross") }), nil)
		g.RequestStop()
	})

	g.Run()
	if len(ran) != 1 || ran[0] != "first" {
		t.Fatalf("ran = %v, want [first] (stop honored at the barrier)", ran)
	}
	if !((g.Pending() == 1) && g.Engine(1).Pending() == 1) {
		t.Fatalf("cross event not injected before the stop: pending=%d", g.Pending())
	}
	if g.StopRequested() {
		t.Fatal("stop not consumed")
	}

	g.Run()
	if len(ran) != 2 || ran[1] != "cross" {
		t.Fatalf("ran = %v after resume, want [first cross]", ran)
	}
}

// The round counter must be a pure function of the simulation content:
// equal across worker counts for a fixed partition.
func TestShardGroupRoundsStableAcrossWorkers(t *testing.T) {
	run := func(workers int) uint64 {
		n := newTokenNet(4, func(i int) int { return i % 2 }, 2, workers, 9, 10)
		n.start(4)
		n.g.Run()
		return n.g.Rounds()
	}
	if a, b := run(1), run(2); a != b {
		t.Fatalf("rounds differ across worker counts: %d vs %d", a, b)
	}
}

// Group instrumentation must expose the same totals as the group counters.
func TestShardGroupInstrument(t *testing.T) {
	n := newTokenNet(4, func(i int) int { return i % 2 }, 2, 2, 6, 10)
	reg := obs.NewRegistry()
	n.g.Instrument(reg)
	n.start(4)
	n.g.Run()

	dispatched, _ := reg.Snapshot().Get("sim_events_dispatched_total")
	if n.g.Processed() == 0 || uint64(dispatched) != n.g.Processed() {
		t.Fatalf("instrumented dispatched = %d, want %d", dispatched, n.g.Processed())
	}
	if n.g.CrossEvents() == 0 {
		t.Fatal("token ring crossed no shard boundary")
	}
}
