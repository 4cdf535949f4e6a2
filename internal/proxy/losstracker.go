package proxy

import (
	"incastproxy/internal/units"
)

// LossTrackerConfig bounds the tracker's memory, mirroring eBPF map
// constraints.
type LossTrackerConfig struct {
	// WindowPkts is the per-flow reorder window: sequence numbers more
	// than WindowPkts behind the highest seen are no longer tracked
	// (default 256).
	WindowPkts int
	// ReorderDelay is how long a sequence gap may persist before it is
	// declared a loss (RACK-style time threshold; default 50 us, a few
	// intra-DC RTTs).
	ReorderDelay units.Duration
	// MaxFlows bounds the flow table; least-recently-updated flows are
	// evicted (default 1024).
	MaxFlows int
}

func (c LossTrackerConfig) withDefaults() LossTrackerConfig {
	if c.WindowPkts <= 0 {
		c.WindowPkts = 256
	}
	if c.ReorderDelay <= 0 {
		c.ReorderDelay = 50 * units.Microsecond
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 1024
	}
	return c
}

// Loss identifies one declared-lost packet.
type Loss struct {
	Flow uint64
	Seq  uint64
}

// LossTrackerStats counts tracker activity, including the error sources
// §5's future-work questions ask about.
type LossTrackerStats struct {
	Observed      uint64
	LossesFlagged uint64
	// LateArrivals counts packets that arrived after being flagged lost
	// — each one is a false positive the consumer may have acted on.
	LateArrivals uint64
	// WindowOverruns counts holes pushed out of the reorder window
	// before ReorderDelay elapsed (forced early decisions).
	WindowOverruns uint64
	FlowEvictions  uint64
}

type hole struct {
	seq     uint64
	sinceAt units.Time
}

type flowTrack struct {
	highest   uint64
	hasAny    bool
	holes     []hole // sorted by seq
	flagged   map[uint64]bool
	lastTouch uint64
}

// LossTracker detects losses from a sequence stream under reordering — the
// paper's future work #1: tracking packet loss at the proxy *without* switch
// trimming support, disambiguating reordered from lost packets within
// eBPF-like memory constraints (bounded per-flow windows, bounded flow table
// with LRU eviction). It is deliberately single-goroutine (it models an eBPF
// program's per-CPU processing).
type LossTracker struct {
	cfg   LossTrackerConfig
	flows map[uint64]*flowTrack
	// order lists the tracked flows oldest first. Flush walks it, so the
	// losses of one tick come out in a fixed order and not in Go's
	// randomized map order (the consumer NACKs in the order returned).
	order []uint64
	clock uint64
	Stats LossTrackerStats
}

// NewLossTracker returns a tracker with the given bounds.
func NewLossTracker(cfg LossTrackerConfig) *LossTracker {
	cfg = cfg.withDefaults()
	return &LossTracker{cfg: cfg, flows: make(map[uint64]*flowTrack, cfg.MaxFlows)}
}

// Observe processes one arriving data packet and returns any sequences
// newly declared lost for that flow (holes older than ReorderDelay, plus
// holes forced out of the reorder window).
func (t *LossTracker) Observe(flow, seq uint64, now units.Time) []Loss {
	t.Stats.Observed++
	ft := t.flow(flow)

	var losses []Loss
	switch {
	case !ft.hasAny:
		ft.hasAny = true
		ft.highest = seq
	case seq > ft.highest:
		// Every skipped sequence becomes a hole.
		for s := ft.highest + 1; s < seq; s++ {
			ft.holes = append(ft.holes, hole{seq: s, sinceAt: now})
		}
		ft.highest = seq
		losses = t.enforceWindow(flow, ft, losses)
	default:
		// A reordered (or retransmitted) arrival fills its hole.
		losses = t.fill(flow, ft, seq, losses)
	}
	return t.expire(flow, ft, now, losses)
}

// Flush declares all holes of every flow older than ReorderDelay lost,
// without needing a new arrival. Callers invoke it from a timer.
func (t *LossTracker) Flush(now units.Time) []Loss {
	var losses []Loss
	for _, f := range t.order {
		losses = t.expire(f, t.flows[f], now, losses)
	}
	return losses
}

// TrackedFlows returns the current flow-table occupancy.
func (t *LossTracker) TrackedFlows() int { return len(t.flows) }

func (t *LossTracker) flow(f uint64) *flowTrack {
	t.clock++
	if ft, ok := t.flows[f]; ok {
		ft.lastTouch = t.clock
		return ft
	}
	if len(t.flows) >= t.cfg.MaxFlows {
		t.evict()
	}
	ft := &flowTrack{flagged: make(map[uint64]bool), lastTouch: t.clock}
	t.flows[f] = ft
	t.order = append(t.order, f)
	return ft
}

func (t *LossTracker) evict() {
	victim := 0
	oldest := ^uint64(0)
	for i, f := range t.order {
		if lt := t.flows[f].lastTouch; lt < oldest {
			oldest = lt
			victim = i
		}
	}
	delete(t.flows, t.order[victim])
	t.order = append(t.order[:victim], t.order[victim+1:]...)
	t.Stats.FlowEvictions++
}

// fill removes seq's hole if present; a fill of an already-flagged seq is a
// detected false positive (late arrival).
func (t *LossTracker) fill(flow uint64, ft *flowTrack, seq uint64, losses []Loss) []Loss {
	if ft.flagged[seq] {
		t.Stats.LateArrivals++
		delete(ft.flagged, seq)
		return losses
	}
	for i, h := range ft.holes {
		if h.seq == seq {
			ft.holes = append(ft.holes[:i], ft.holes[i+1:]...)
			break
		}
	}
	return losses
}

// expire flags holes older than ReorderDelay.
func (t *LossTracker) expire(flow uint64, ft *flowTrack, now units.Time, losses []Loss) []Loss {
	kept := ft.holes[:0]
	for _, h := range ft.holes {
		if now.Sub(h.sinceAt) >= t.cfg.ReorderDelay {
			losses = t.flag(flow, ft, h.seq, losses)
		} else {
			kept = append(kept, h)
		}
	}
	ft.holes = kept
	return losses
}

// enforceWindow force-flags holes that fell out of the reorder window
// (memory bound), counting them as early decisions.
func (t *LossTracker) enforceWindow(flow uint64, ft *flowTrack, losses []Loss) []Loss {
	if ft.highest < uint64(t.cfg.WindowPkts) {
		return losses
	}
	floor := ft.highest - uint64(t.cfg.WindowPkts)
	kept := ft.holes[:0]
	for _, h := range ft.holes {
		if h.seq < floor {
			t.Stats.WindowOverruns++
			losses = t.flag(flow, ft, h.seq, losses)
		} else {
			kept = append(kept, h)
		}
	}
	ft.holes = kept
	return losses
}

func (t *LossTracker) flag(flow uint64, ft *flowTrack, seq uint64, losses []Loss) []Loss {
	if ft.flagged[seq] {
		return losses
	}
	ft.flagged[seq] = true
	t.Stats.LossesFlagged++
	return append(losses, Loss{Flow: flow, Seq: seq})
}
