// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// ShardGroup runs several Engines in conservative-lookahead lockstep: the
// classic null-message-free PDES barrier scheme (Chandy/Misra/Bryant with a
// global window). The fabric is partitioned so that every link crossing a
// shard boundary has a propagation delay of at least the group's lookahead
// L. Each barrier round computes the global minimum next-event time t_min
// and lets every shard run independently through the exclusive horizon
// [t_min, t_min+L): any packet handed off during the round arrives at its
// destination shard no earlier than t_min+L, so no shard can receive a
// cross-shard event in its own past.
//
// Cross-shard handoffs go through per-source outboxes (Post) and are merged
// at each barrier in (time, source shard, post sequence) order, then
// injected with the packet-ID tie-break key (ScheduleHandler). Together those
// two orderings make a run's event execution a pure function of the seed:
// byte-identical results at any shard count and any worker count.
//
// Within a round the shards share nothing — each Engine stays
// single-threaded — so rounds may execute on parallel worker goroutines.
// Between rounds the barrier (WaitGroup join) orders all memory accesses.
type ShardGroup struct {
	engines   []*Engine
	lookahead units.Duration
	workers   int

	// outbox and postSeq are indexed by source shard; each entry is only
	// ever touched by the goroutine executing that shard's round, so no
	// locking is needed.
	outbox  [][]crossEvent
	postSeq []uint64

	inject []crossEvent // barrier-time merge scratch
	rounds uint64
	stop   atomic.Bool
}

// crossEvent is one pending cross-shard handoff.
type crossEvent struct {
	at  units.Time
	key uint64
	src int
	seq uint64
	dst int
	h   Handler
	arg any
}

// NewShardGroup returns n fresh engines synchronized with the given
// lookahead (which must be positive: it is the minimum propagation delay of
// every boundary link). workers bounds the goroutines running shard rounds;
// 0 or negative means one per shard.
func NewShardGroup(n int, lookahead units.Duration, workers int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard lookahead must be positive, got %v", lookahead))
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	g := &ShardGroup{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		workers:   workers,
		outbox:    make([][]crossEvent, n),
		postSeq:   make([]uint64, n),
	}
	for i := range g.engines {
		g.engines[i] = New()
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the group's conservative lookahead window.
func (g *ShardGroup) Lookahead() units.Duration { return g.lookahead }

// Post queues h.Fire(arg) to run at absolute time at on shard dst, on behalf
// of an event currently executing on shard src. key is the same-instant
// tie-break rank (the packet ID for link deliveries; a link delivery posts
// the peer port's handler with the packet as arg, so a cross-shard packet
// builds no closure). at must respect the lookahead
// contract — at least src's current time plus the lookahead — or the
// partition is broken (a boundary link shorter than the lookahead), which
// is a programming error and panics.
func (g *ShardGroup) Post(src, dst int, at units.Time, key uint64, h Handler, arg any) {
	e := g.engines[src]
	if at < e.now.Add(g.lookahead) {
		panic(fmt.Sprintf("sim: cross-shard event at %v from shard %d (now %v) violates lookahead %v",
			at, src, e.now, g.lookahead))
	}
	g.postSeq[src]++
	g.outbox[src] = append(g.outbox[src], crossEvent{
		at: at, key: key, src: src, seq: g.postSeq[src], dst: dst, h: h, arg: arg,
	})
}

// RequestStop asks the group to halt at the next barrier. Unlike
// Engine.Stop, which takes effect after the current event, a group stop is
// quantized to the round boundary: every shard finishes the current round's
// horizon first. That keeps the stop point — and therefore the set of
// executed events — identical at every shard and worker count. Safe to call
// from any shard's events or from other goroutines.
func (g *ShardGroup) RequestStop() { g.stop.Store(true) }

// StopRequested reports whether a group stop is pending or was honored.
func (g *ShardGroup) StopRequested() bool { return g.stop.Load() }

// Rounds returns the number of completed barrier rounds.
func (g *ShardGroup) Rounds() uint64 { return g.rounds }

// Processed returns the total number of events executed across all shards.
func (g *ShardGroup) Processed() uint64 {
	var total uint64
	for _, e := range g.engines {
		total += e.Processed()
	}
	return total
}

// Scheduled returns the total number of events scheduled across all shards.
func (g *ShardGroup) Scheduled() uint64 {
	var total uint64
	for _, e := range g.engines {
		total += e.Scheduled()
	}
	return total
}

// Pending returns the total number of queued events across all shards.
func (g *ShardGroup) Pending() int {
	total := 0
	for _, e := range g.engines {
		total += e.Pending()
	}
	return total
}

// CrossEvents returns the total number of cross-shard handoffs posted so
// far. Diagnostic only: the value depends on the partition, so it must not
// feed artifacts that are compared across shard counts.
func (g *ShardGroup) CrossEvents() uint64 {
	var total uint64
	for _, n := range g.postSeq {
		total += n
	}
	return total
}

// Now returns the group clock: the maximum shard clock. After a barrier all
// shards agree on it.
func (g *ShardGroup) Now() units.Time {
	var hi units.Time
	for _, e := range g.engines {
		if t := e.Now(); t > hi {
			hi = t
		}
	}
	return hi
}

// Run executes rounds until no shard has work left or RequestStop is
// honored, returning the final group time.
func (g *ShardGroup) Run() units.Time { return g.RunUntil(units.MaxTime) }

// RunUntil executes barrier rounds until every queue is drained, the next
// global event lies beyond the deadline, or a stop is honored. Matching
// Engine.RunUntil, a non-stopped exit advances every shard clock to the
// deadline (MaxTime excepted).
func (g *ShardGroup) RunUntil(deadline units.Time) units.Time {
	for {
		// Inject before honoring a stop so that every posted handoff is
		// scheduled exactly once: scheduled-event counts then match a
		// single-shard run, where a link arms or parks a packet the moment
		// it starts serializing rather than at a barrier.
		g.injectPending()
		if g.stop.Load() {
			g.stop.Store(false)
			return g.Now()
		}
		tmin, ok := g.nextEventTime()
		if !ok || tmin > deadline {
			break
		}
		horizon := tmin.Add(g.lookahead) - 1 // exclusive at tmin+L
		if horizon > deadline || horizon < tmin {
			horizon = deadline
		}
		g.runRound(horizon)
		g.rounds++
	}
	if deadline != units.MaxTime {
		for _, e := range g.engines {
			e.RunUntil(deadline) // no events <= deadline remain: advances the clock only
		}
	}
	return g.Now()
}

// nextEventTime returns the earliest queued event time across all shards.
func (g *ShardGroup) nextEventTime() (units.Time, bool) {
	var tmin units.Time
	found := false
	for _, e := range g.engines {
		if at, ok := e.NextEventAt(); ok && (!found || at < tmin) {
			tmin, found = at, true
		}
	}
	return tmin, found
}

// injectPending merges every outbox in deterministic (time, source shard,
// post sequence) order and schedules the events on their destination
// engines.
func (g *ShardGroup) injectPending() {
	buf := g.inject[:0]
	for src := range g.outbox {
		buf = append(buf, g.outbox[src]...)
		g.outbox[src] = g.outbox[src][:0]
	}
	if len(buf) == 0 {
		g.inject = buf
		return
	}
	slices.SortFunc(buf, crossOrder)
	for i := range buf {
		ev := &buf[i]
		g.engines[ev.dst].ScheduleHandler(ev.at, ev.key, ev.h, ev.arg)
		ev.h, ev.arg = nil, nil // drop the references while the scratch is retained
	}
	g.inject = buf[:0]
}

// crossOrder is the barrier merge order: (time, source shard, post sequence).
func crossOrder(a, b crossEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// runRound advances every shard to the horizon, fanning shards across the
// group's worker goroutines. A single worker (or a single shard) runs
// inline.
func (g *ShardGroup) runRound(horizon units.Time) {
	n := len(g.engines)
	w := g.workers
	if w > n {
		w = n
	}
	if w <= 1 || n == 1 {
		for _, e := range g.engines {
			e.RunUntil(horizon)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return
				}
				g.engines[idx].RunUntil(horizon)
			}
		}()
	}
	wg.Wait()
}

// Instrument exports the group's progress to a metrics registry under the
// same series names Engine.Instrument uses (summed across shards; virtual
// time is the group clock), plus the barrier round count. Every exported
// value is a pure function of the simulation content, not of the partition,
// so instrumented artifacts compare byte-identical across shard counts.
func (g *ShardGroup) Instrument(reg *obs.Registry) {
	reg.CounterFunc("sim_events_dispatched_total", g.Processed)
	reg.CounterFunc("sim_events_scheduled_total", g.Scheduled)
	reg.GaugeFunc("sim_pending_events", func() int64 {
		total := int64(g.Pending())
		for _, e := range g.engines {
			total += int64(e.parked)
		}
		return total
	})
	reg.GaugeFunc("sim_virtual_time_us", func() int64 { return int64(g.Now()) / int64(units.Microsecond) })
	reg.CounterFunc("sim_shard_rounds_total", func() uint64 { return g.rounds })
}
