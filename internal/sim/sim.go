// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package sim implements the discrete-event simulation engine underneath the
// packet-level network simulator. It is a minimal htsim-style core: a
// priority queue of timestamped events, a logical clock, and reusable timers.
//
// An event is one pooled record holding a (Handler, argument) pair. The
// per-packet layers schedule a long-lived object as the handler (a port, a
// proxy) and the packet as the argument, so a packet crossing the fabric
// builds no closure; everything that fires once per epoch or per sample
// period keeps the Event func form, which is itself a Handler. Pending
// events sit in an inlined 4-ary min-heap whose entries carry their own
// ordering fields, so a sift compares values without touching the records
// and without an interface call.
//
// The heap holds what can fire next, not everything in flight. A source of
// events that are ordered among themselves (a link's in-flight packets)
// keeps them in its own FIFO and holds one heap entry, for the earliest;
// Park and Unpark account for the rest so the engine's counters do not
// depend on who holds an event. Such a handler re-arms itself on every
// dispatch, so dispatch leaves the root slot open while the handler runs
// and the first schedule from inside it fills the slot with one sift-down,
// in place of a pop's sift plus a push's.
//
// The order is total — (time, key with 0 ranked last, scheduling sequence) —
// so events scheduled for the same instant run in scheduling order (FIFO)
// unless keyed, which keeps runs deterministic for a given seed. Event
// records are recycled through a per-engine free list and cancelled timers
// are removed from the heap eagerly, so the steady-state event loop
// allocates nothing.
//
// An Engine is single-threaded by design: one engine per goroutine. The
// parallel experiment runner (internal/runner) exploits this by giving every
// trial its own engine rather than sharing one.
package sim

import (
	"fmt"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// Handler is what an event record dispatches to: Fire runs at the scheduled
// time with the argument given to ScheduleHandler. A pointer-shaped arg (a
// *Packet) rides in the interface without allocating.
type Handler interface {
	Fire(e *Engine, arg any)
}

// Event is a deferred callback. Handlers receive the engine so they can
// schedule follow-up work.
type Event func(*Engine)

// Fire implements Handler, so Schedule/After/timers share the one dispatch
// path. A func value is pointer-shaped: the conversion does not allocate.
func (f Event) Fire(e *Engine, _ any) { f(e) }

// scheduledEvent is the pooled record of one pending event: what to run, and
// where it sits in the heap.
type scheduledEvent struct {
	h   Handler
	arg any
	// gen increments every time the record returns to the free list, so a
	// Timer holding a stale pointer can tell its event already fired or was
	// recycled and must not be removed again.
	gen   uint64
	index int // heap position; -1 once popped or removed
}

// heapEntry is one slot of the event heap. The ordering fields live in the
// entry, not behind the record pointer, so a sift reads consecutive memory.
type heapEntry struct {
	at units.Time
	// rank is the caller-supplied tie-break key for events at the same
	// instant (ScheduleHandler), with the plain key 0 stored as MaxUint64.
	// Keyed events order by key and run before any plain Schedule/After
	// event at the same instant; plain events keep strict FIFO order among
	// themselves. Keyed ordering lets link deliveries carry an intrinsic,
	// engine-independent rank — the property the sharded runtime needs for
	// byte-identical runs at any shard count — and arrivals-before-timers
	// keeps a retransmission timer that lands exactly on its ACK's arrival
	// instant from firing spuriously: the wire beats the clock.
	rank uint64
	seq  uint64
	ev   *scheduledEvent
}

func (a *heapEntry) less(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap: four 32-byte entries are two
// cache lines of children per level, and half the levels of a binary heap.
const heapArity = 4

// eventHeap is a d-ary min-heap of entries that keeps each record's index
// current. The order is total, so any correct heap pops the same sequence.
type eventHeap []heapEntry

func (h eventHeap) set(i int, x heapEntry) {
	h[i] = x
	x.ev.index = i
}

// up moves x toward the root from the hole at i.
func (h eventHeap) up(i int, x heapEntry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.less(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, x)
}

// down moves x toward the leaves from the hole at i.
func (h eventHeap) down(i int, x heapEntry) {
	n := len(h)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h[c].less(&h[min]) {
				min = c
			}
		}
		if !h[min].less(&x) {
			break
		}
		h.set(i, h[min])
		i = min
	}
	h.set(i, x)
}

func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, x)
	h.up(len(*h)-1, x)
}

// removeAt deletes the entry at position i and returns its record.
func (h *eventHeap) removeAt(i int) *scheduledEvent {
	n := len(*h) - 1
	ev, last := (*h)[i].ev, (*h)[n]
	(*h)[n] = heapEntry{}
	rest := (*h)[:n]
	*h = rest
	if i < n { // the last entry fills the hole and settles either way
		if i > 0 && last.less(&rest[(i-1)/heapArity]) {
			rest.up(i, last)
		} else {
			rest.down(i, last)
		}
	}
	ev.index = -1
	return ev
}

// initialHeapCap pre-sizes the event heap and free list: incast runs keep
// hundreds of in-flight packet/timer events, and starting near steady state
// avoids the early append-doubling churn on every run of a sweep.
const initialHeapCap = 256

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now       units.Time
	seq       uint64
	events    eventHeap
	free      []*scheduledEvent
	processed uint64
	// parked counts events their source holds outside the heap (Park).
	parked uint64
	// hole is set while the handler of the event at the root runs: the root
	// entry is spent and the next schedule overwrites it. Everything else
	// that reads or reshapes the heap calls settle first.
	hole    bool
	stopped bool
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{
		events: make(eventHeap, 0, initialHeapCap),
		free:   make([]*scheduledEvent, 0, initialHeapCap),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Instrument exports the engine's progress to a metrics registry via lazy
// collectors: no per-event recording cost, the values are read only at
// snapshot time.
func (e *Engine) Instrument(reg *obs.Registry) {
	reg.CounterFunc("sim_events_dispatched_total", func() uint64 { return e.processed })
	reg.CounterFunc("sim_events_scheduled_total", e.Scheduled)
	reg.GaugeFunc("sim_pending_events", func() int64 { return int64(e.Pending()) + int64(e.parked) })
	reg.GaugeFunc("sim_virtual_time_us", func() int64 { return int64(e.now) / int64(units.Microsecond) })
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the heap. Parked events
// are not in it.
func (e *Engine) Pending() int {
	e.settle()
	return len(e.events)
}

// Parked returns the number of events currently parked outside the heap.
func (e *Engine) Parked() uint64 { return e.parked }

// Park accounts for one event that its source holds in a FIFO of its own,
// behind an earlier event of the same source that is in the heap. The event
// counts as scheduled and, in the sim_pending_events gauge, as pending, just
// as if it had been given to ScheduleHandler: whether a link parks a packet
// or posts it across a shard boundary must not show in the counters.
func (e *Engine) Park() { e.parked++ }

// Unpark is ScheduleHandler for an event counted by Park, once it has become
// its source's earliest: it enters the heap without being counted again.
func (e *Engine) Unpark(at units.Time, key uint64, h Handler, arg any) {
	e.parked--
	e.schedule(at, key, h, arg)
}

// acquire takes an event record from the free list (or allocates one).
func (e *Engine) acquire(h Handler, arg any) *scheduledEvent {
	var ev *scheduledEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(scheduledEvent)
	}
	ev.h, ev.arg = h, arg
	return ev
}

// release recycles an event record that left the heap. Clearing h and arg
// drops their references; bumping gen invalidates any Timer still pointing
// here.
func (e *Engine) release(ev *scheduledEvent) {
	ev.h, ev.arg = nil, nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule runs fn at the absolute time at. Scheduling in the past panics:
// it always indicates a simulator bug.
func (e *Engine) Schedule(at units.Time, fn Event) {
	e.schedule(at, 0, fn, nil)
}

// ScheduleHandler runs h.Fire(e, arg) at the absolute time at: the one
// scheduling path, which Schedule, After and timers call with an Event as
// the handler and key 0. A nonzero key ranks the event among same-instant
// events: lower keys run first, and every keyed event runs before the plain
// (key 0) events at that instant. Events with equal keys keep FIFO order.
// Link deliveries use a packet-ID hash as the key so that same-instant
// arrival order is a function of the packets alone, not of the order the
// delivery events happened to be scheduled in — the invariant that keeps
// sharded runs byte-identical at any shard count. Running arrivals before
// plain events (timers) preserves the serial engine's emergent behavior
// that an ACK arriving at the exact instant its retransmission timer
// expires cancels the timer rather than losing the race to it.
func (e *Engine) ScheduleHandler(at units.Time, key uint64, h Handler, arg any) {
	e.schedule(at, key, h, arg)
}

func (e *Engine) schedule(at units.Time, key uint64, h Handler, arg any) *scheduledEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.acquire(h, arg)
	e.seq++
	if key == 0 {
		key = ^uint64(0) // plain events rank after every keyed one
	}
	x := heapEntry{at: at, rank: key, seq: e.seq, ev: ev}
	if e.hole {
		e.hole = false
		e.events.down(0, x)
	} else {
		e.events.push(x)
	}
	return ev
}

// settle closes the hole dispatch left at the root, if it is still open, by
// finishing the pop. The spent root entry still points at its record, which
// is on the free list until the next schedule, so removeAt's bookkeeping on
// it is harmless.
func (e *Engine) settle() {
	if e.hole {
		e.hole = false
		e.events.removeAt(0)
	}
}

// After runs fn after delay d.
func (e *Engine) After(d units.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

// Stop halts Run/RunUntil after the current event returns. Remaining events
// stay queued. A Stop issued while no run is in progress is sticky: the next
// Run/RunUntil consumes it and returns immediately, without executing any
// event or advancing the clock.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final simulated time.
func (e *Engine) Run() units.Time { return e.RunUntil(units.MaxTime) }

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. On a non-stopped exit the clock
// advances to the deadline (so back-to-back RunUntil calls see time move
// even through event-free windows — the shard barrier depends on this);
// Run's MaxTime sentinel is exempt, so Run keeps returning the last event's
// time. A pending Stop — whether issued by an event during this run or
// left over from before it — is consumed exactly once and freezes the
// clock where the last executed event left it.
func (e *Engine) RunUntil(deadline units.Time) units.Time {
	e.settle()
	for len(e.events) > 0 && !e.stopped && e.events[0].at <= deadline {
		e.dispatch()
	}
	if e.stopped {
		e.stopped = false
		return e.now
	}
	if deadline != units.MaxTime && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// NextEventAt returns the timestamp of the earliest queued event, or
// ok=false when the queue is empty. Shard barriers use it to compute the
// global lookahead horizon.
func (e *Engine) NextEventAt() (units.Time, bool) {
	e.settle()
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Scheduled returns the number of events ever scheduled on this engine,
// parked ones included. An unparked event has left parked and entered seq,
// so it is counted once.
func (e *Engine) Scheduled() uint64 { return e.seq + e.parked }

// Step executes exactly one event if any is pending, reporting whether one
// ran.
func (e *Engine) Step() bool {
	e.settle()
	if len(e.events) == 0 {
		return false
	}
	e.dispatch()
	return true
}

// dispatch runs the earliest event. The pop is left half done, with the
// root slot open, while the handler runs: a handler that schedules (a link
// re-arming for its next packet does, every time) fills the slot directly.
func (e *Engine) dispatch() {
	at, ev := e.events[0].at, e.events[0].ev
	h, arg := ev.h, ev.arg
	ev.index = -1
	// Recycle before dispatch: the handler may schedule and wants the
	// record back, and gen is already bumped so stale timer cancels no-op.
	e.release(ev)
	e.now = at
	e.processed++
	e.hole = true
	h.Fire(e, arg)
	e.settle()
}

// Timer is a cancellable, re-armable one-shot timer, used for transport
// retransmission timeouts. The zero value is an unarmed timer.
type Timer struct {
	engine  *Engine
	fn      Event
	ev      *scheduledEvent
	gen     uint64
	dueAt   units.Time
	pending bool
}

// NewTimer returns a timer that runs fn when it fires.
func NewTimer(e *Engine, fn Event) *Timer {
	return &Timer{engine: e, fn: fn}
}

// timerFire is the Handler a Timer schedules itself under, so re-arming (the
// transport RTO hot path) builds no closure.
type timerFire Timer

func (f *timerFire) Fire(e *Engine, _ any) {
	t := (*Timer)(f)
	t.pending = false
	t.ev = nil
	t.fn(e)
}

// Arm (re)schedules the timer to fire at the absolute time at, replacing any
// earlier schedule. A deadline already in the past fires at the current time
// (after events already queued for this instant).
func (t *Timer) Arm(at units.Time) {
	t.Cancel()
	if at < t.engine.now {
		at = t.engine.now
	}
	t.ev = t.engine.schedule(at, 0, (*timerFire)(t), nil)
	t.gen = t.ev.gen
	t.dueAt = at
	t.pending = true
}

// ArmAfter (re)schedules the timer to fire after d.
func (t *Timer) ArmAfter(d units.Duration) {
	if d < 0 {
		d = 0
	}
	t.Arm(t.engine.Now().Add(d))
}

// Cancel disarms the timer if pending, removing its event from the heap so
// long runs with many re-armed timers do not accumulate dead entries.
func (t *Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0 {
		t.engine.settle()
		t.engine.release(t.engine.events.removeAt(t.ev.index))
	}
	t.ev = nil
	t.pending = false
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.pending }

// DueAt returns the time the timer is armed for; meaningful only when
// Pending.
func (t *Timer) DueAt() units.Time { return t.dueAt }
