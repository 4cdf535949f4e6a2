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
// period keeps the Event func form, which is itself a Handler.
//
// Pending events have two homes. Almost every schedule in a packet
// simulation is for a few nanoseconds to a few microseconds ahead (a
// serialization step, an in-DC hop), so the engine keeps a calendar in front
// of its heap: a ring of time buckets covering a short window that starts at
// the current instant, each bucket a list in firing order linked through the
// records themselves, with a bitmap to find the first non-empty one. A
// schedule inside the window links its record into its bucket, in O(1) when
// it fires last there and otherwise after a short bounded walk; everything
// else — beyond the window (retransmission timers, long-haul pipe heads), or
// deeper in a crowded bucket than the walk goes — sits in an inlined 4-ary
// min-heap whose entries carry their own ordering fields, so a sift compares
// values without touching the records and without an interface call. The next
// event is the smaller of the calendar's earliest record and the heap's root;
// where an event sits is a matter of speed only, never of order.
//
// The two hold what can fire next, not everything in flight. A source of
// events that are ordered among themselves (a link's in-flight packets)
// keeps them in its own FIFO and schedules one event, for the earliest; Park
// and Unpark account for the rest so the engine's counters do not depend on
// who holds an event.
//
// The order is total — (time, key with 0 ranked last, scheduling sequence) —
// so events scheduled for the same instant run in scheduling order (FIFO)
// unless keyed, which keeps runs deterministic for a given seed. Event
// records are carved from chunks and recycled through a per-engine free
// list, and cancelled timers are removed from their home eagerly, so the
// steady-state event loop allocates nothing.
//
// An Engine is single-threaded by design: one engine per goroutine. The
// parallel experiment runner (internal/runner) exploits this by giving every
// trial its own engine rather than sharing one.
package sim

import (
	"fmt"
	"math/bits"

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
// where it sits.
type scheduledEvent struct {
	h   Handler
	arg any
	// at, rank and seq place a calendar-resident record in the total order
	// (see heapEntry); a heap-resident record's are in its heap entry only.
	at   units.Time
	rank uint64
	seq  uint64
	// next links the record into its calendar bucket, or into the free list.
	next *scheduledEvent
	// gen increments every time the record returns to the free list, so a
	// Timer holding a stale pointer can tell its event already fired or was
	// recycled and must not be removed again.
	gen uint32
	// index is the heap position, inCalendar, or notPending once the record
	// fired or was removed.
	index int32
}

const (
	notPending = -1
	inCalendar = -2
)

// heapEntry is one slot of the event heap. The ordering fields live in the
// entry, not behind the record pointer, so a sift reads consecutive memory.
type heapEntry struct {
	at units.Time
	// rank is the caller-supplied tie-break key for events at the same
	// instant (ScheduleHandler), with the plain key 0 stored as MaxUint64.
	// Keyed events order by key and run before any plain Schedule/After
	// event at the same instant; plain events keep strict FIFO order among
	// themselves. Keyed ordering lets link deliveries carry an intrinsic
	// rank, independent of when their events were scheduled, and
	// arrivals-before-timers keeps a retransmission timer that lands exactly
	// on its ACK's arrival instant from firing spuriously: the wire beats
	// the clock.
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
	x.ev.index = int32(i)
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
	ev.index = notPending
	return ev
}

// The calendar's shape. These are speed constants only: any width, count or
// bound pops the same sequence. Measured flat on the Fig 2 cells from 1 ns to
// 16 ns buckets and from 256 to 4096 of them (65 ns buckets cost ~20% of the
// gain); the window they span, ~4 us, takes every serialization step and
// in-DC hop and leaves the ms-scale timers and long-haul pipe heads, ~2% of
// schedules, to the heap. The fan-in epoch sends 24% of its schedules there
// (link arrivals 4-10 us ahead, onto a heap its 4000 RTO timers keep ~4.9k
// deep); 4096 buckets, a 16 us window and 48 KB more per engine, measured
// 4.4% cheaper there (cell_baseline 8.6%, cell_streamlined 1.9%; ten pairs,
// seed 7, PR 25): short of the 5% asked of it, so the window stays.
const (
	bucketShift = 12   // a bucket is 4096 ps
	numBuckets  = 1024 // a power of two: the ring index is a mask
	// walkBound is how many records of a bucket a schedule steps over to
	// find its place before giving the event to the heap, so a burst on one
	// instant in random key order costs a bounded walk each, not a quadratic
	// one. A burst in firing order never walks: it appends at the tail.
	walkBound = 16
)

// bucket is one calendar slot: its records in firing order, linked by next.
type bucket struct{ head, tail *scheduledEvent }

// slot is the calendar slot of the bucket that holds time at.
func slot(at units.Time) uint64 { return uint64(at) >> bucketShift & (numBuckets - 1) }

// initialHeapCap pre-sizes the event heap: incast runs keep hundreds of
// timer events, and starting near steady state avoids the early
// append-doubling churn on every run of a sweep.
const initialHeapCap = 256

// eventChunk is the most records the engine allocates at a time when its
// free list is empty. A chunk is never larger than the number of events
// scheduled so far, so a small run holds a small chunk.
const eventChunk = 256

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now       units.Time
	seq       uint64
	processed uint64
	// parked counts events their source holds outside the engine (Park).
	parked  uint64
	stopped bool

	// The calendar: slot b&(numBuckets-1) holds the records due in absolute
	// bucket b = at>>bucketShift, for b within numBuckets of the bucket of now.
	// No pending event is earlier than now, so every slot holds records of
	// one absolute bucket only and a circular scan from now's slot meets
	// them in time order. occupied has a bit per non-empty slot.
	near     int // records in the calendar
	occupied [numBuckets / 64]uint64
	buckets  [numBuckets]bucket

	events eventHeap // everything else

	free  *scheduledEvent  // recycled records, linked by next
	chunk []scheduledEvent // records not yet issued
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{events: make(eventHeap, 0, initialHeapCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Instrument exports the engine's progress to a metrics registry through one
// collector: no per-event recording cost, the values are read only at
// snapshot time.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(func(c *obs.Collector) {
		c.Counter("sim_events_dispatched_total", e.processed)
		c.Counter("sim_events_scheduled_total", e.Scheduled())
		c.Gauge("sim_pending_events", int64(e.Pending())+int64(e.parked))
		c.Gauge("sim_virtual_time_us", int64(e.now)/int64(units.Microsecond))
	})
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the engine, calendar and
// heap together. Parked events are not among them.
func (e *Engine) Pending() int { return e.near + len(e.events) }

// Parked returns the number of events currently parked outside the engine.
func (e *Engine) Parked() uint64 { return e.parked }

// Park accounts for one event that its source holds in a FIFO of its own,
// behind an earlier event of the same source that the engine holds. The event
// counts as scheduled and, in the sim_pending_events gauge, as pending, just
// as if it had been given to ScheduleHandler. A source may park late: a port
// parks a packet that waited in its queue when the port is next touched, not
// at the past instant the packet started serializing (netsim.Port.catchUp),
// so a waiting packet shows in the counters from then.
func (e *Engine) Park() { e.parked++ }

// Unpark is ScheduleHandler for an event counted by Park, once it has become
// its source's earliest: it enters the engine without being counted again.
func (e *Engine) Unpark(at units.Time, key uint64, h Handler, arg any) {
	e.parked--
	e.schedule(at, key, h, arg)
}

// acquire takes an event record from the free list, or the next one of the
// current chunk.
func (e *Engine) acquire(h Handler, arg any) *scheduledEvent {
	ev := e.free
	if ev != nil {
		e.free, ev.next = ev.next, nil
	} else {
		if len(e.chunk) == 0 {
			e.chunk = make([]scheduledEvent, min(eventChunk, e.seq))
		}
		ev, e.chunk = &e.chunk[0], e.chunk[1:]
	}
	ev.h, ev.arg = h, arg
	return ev
}

// release recycles an event record that left its home. Clearing h and arg
// drops their references; bumping gen invalidates any Timer still pointing
// here.
func (e *Engine) release(ev *scheduledEvent) {
	ev.h, ev.arg = nil, nil
	ev.gen++
	ev.next, e.free = e.free, ev
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
// delivery events happened to be scheduled in. Running arrivals before
// plain events (timers) means an ACK arriving at the exact instant its
// retransmission timer expires cancels the timer rather than losing the
// race to it.
func (e *Engine) ScheduleHandler(at units.Time, key uint64, h Handler, arg any) {
	e.schedule(at, key, h, arg)
}

func (e *Engine) schedule(at units.Time, key uint64, h Handler, arg any) *scheduledEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	ev := e.acquire(h, arg)
	if key == 0 {
		key = ^uint64(0) // plain events rank after every keyed one
	}
	if uint64(at)>>bucketShift-uint64(e.now)>>bucketShift >= numBuckets || !e.link(slot(at), ev, at, key) {
		e.events.push(heapEntry{at: at, rank: key, seq: e.seq, ev: ev})
	}
	return ev
}

// link puts ev, the event just scheduled for (at, rank), into calendar slot
// i in firing order. It reports false, with nothing changed, when the
// event's place is more than walkBound records into the bucket. The event
// has the highest sequence number so far, so it goes after every record it
// ties with on (time, rank).
func (e *Engine) link(i uint64, ev *scheduledEvent, at units.Time, rank uint64) bool {
	b := &e.buckets[i]
	if t := b.tail; t == nil {
		b.head, b.tail = ev, ev
		e.occupied[i/64] |= 1 << (i % 64)
	} else if at > t.at || at == t.at && rank >= t.rank {
		t.next, b.tail = ev, ev
	} else {
		// The event fires before the tail, so the walk ends at a record.
		var prev *scheduledEvent
		r := b.head
		for n := 0; at > r.at || at == r.at && rank >= r.rank; n++ {
			if n == walkBound {
				return false
			}
			prev, r = r, r.next
		}
		ev.next = r
		if prev == nil {
			b.head = ev
		} else {
			prev.next = ev
		}
	}
	ev.at, ev.rank, ev.seq, ev.index = at, rank, e.seq, inCalendar
	e.near++
	return true
}

// firstSlot returns the calendar slot of the earliest non-empty bucket. The
// calendar must not be empty.
func (e *Engine) firstSlot() uint64 {
	from := slot(e.now)
	w := from / 64
	if m := e.occupied[w] >> (from % 64); m != 0 {
		return from + uint64(bits.TrailingZeros64(m))
	}
	// Coming back round to w, its bits below from are the window's last.
	for {
		w = (w + 1) % uint64(len(e.occupied))
		if m := e.occupied[w]; m != 0 {
			return w*64 + uint64(bits.TrailingZeros64(m))
		}
	}
}

// remove takes a pending record out of its home: out of the heap by its
// index, out of its bucket by walking to it.
func (e *Engine) remove(ev *scheduledEvent) {
	if ev.index != inCalendar {
		e.events.removeAt(int(ev.index))
		return
	}
	var prev *scheduledEvent
	for r := e.buckets[slot(ev.at)].head; r != ev; r = r.next {
		prev = r
	}
	e.unlink(slot(ev.at), prev, ev)
}

// unlink takes ev, which follows prev (nil for the head), out of slot i.
func (e *Engine) unlink(i uint64, prev, ev *scheduledEvent) {
	b := &e.buckets[i]
	if prev == nil {
		b.head = ev.next
	} else {
		prev.next = ev.next
	}
	if b.tail == ev {
		b.tail = prev
		if prev == nil {
			e.occupied[i/64] &^= 1 << (i % 64)
		}
	}
	ev.next, ev.index = nil, notPending
	e.near--
}

// pop removes and returns the earliest pending event and its time, the
// smaller of the calendar's first record and the heap's root, or nil when
// there is none due by deadline.
func (e *Engine) pop(deadline units.Time) (units.Time, *scheduledEvent) {
	var slot uint64
	var c *scheduledEvent
	if e.near > 0 {
		slot = e.firstSlot()
		c = e.buckets[slot].head
	}
	if len(e.events) > 0 {
		if r := &e.events[0]; c == nil || r.at < c.at ||
			r.at == c.at && (r.rank < c.rank || r.rank == c.rank && r.seq < c.seq) {
			if r.at > deadline {
				return 0, nil
			}
			at := r.at
			return at, e.events.removeAt(0)
		}
	}
	if c == nil || c.at > deadline {
		return 0, nil
	}
	e.unlink(slot, nil, c)
	return c.at, c
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
// even through event-free windows); Run's MaxTime sentinel is exempt, so
// Run keeps returning the last event's time. A pending Stop — whether issued
// by an event during this run or left over from before it — is consumed
// exactly once and freezes the clock where the last executed event left it.
func (e *Engine) RunUntil(deadline units.Time) units.Time {
	for !e.stopped && e.step(deadline) {
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
// ok=false when the queue is empty.
func (e *Engine) NextEventAt() (units.Time, bool) {
	at, ok := units.MaxTime, false
	if e.near > 0 {
		at, ok = e.buckets[e.firstSlot()].head.at, true
	}
	if len(e.events) > 0 && e.events[0].at <= at {
		at, ok = e.events[0].at, true
	}
	return at, ok
}

// Scheduled returns the number of events ever scheduled on this engine,
// parked ones included. An unparked event has left parked and entered seq,
// so it is counted once.
func (e *Engine) Scheduled() uint64 { return e.seq + e.parked }

// Step executes exactly one event if any is pending, reporting whether one
// ran.
func (e *Engine) Step() bool { return e.step(units.MaxTime) }

// step runs the earliest event if it is due by deadline.
func (e *Engine) step(deadline units.Time) bool {
	at, ev := e.pop(deadline)
	if ev == nil {
		return false
	}
	h, arg := ev.h, ev.arg
	// Recycle before dispatch: the handler may schedule and wants the
	// record back, and gen is already bumped so stale timer cancels no-op.
	e.release(ev)
	e.now = at
	e.processed++
	h.Fire(e, arg)
	return true
}

// Timer is a cancellable, re-armable one-shot timer, used for transport
// retransmission timeouts. The zero value is an unarmed timer that Init (or
// NewTimer) must give an engine before it is armed.
type Timer struct {
	engine  *Engine
	h       Handler
	ev      *scheduledEvent
	gen     uint32
	dueAt   units.Time
	pending bool
}

// NewTimer returns a timer that runs fn when it fires.
func NewTimer(e *Engine, fn Event) *Timer {
	t := new(Timer)
	t.Init(e, fn)
	return t
}

// Init readies a Timer held by value inside its owner: when it fires it runs
// h.Fire(e, nil). An owner that is the Handler itself, under a named type of
// its own the way timerFire below is the Timer, then needs neither a Timer
// allocation nor a closure.
func (t *Timer) Init(e *Engine, h Handler) { *t = Timer{engine: e, h: h} }

// timerFire is the Handler a Timer schedules itself under, so re-arming (the
// transport RTO hot path) builds no closure.
type timerFire Timer

func (f *timerFire) Fire(e *Engine, _ any) {
	t := (*Timer)(f)
	t.pending = false
	t.ev = nil
	t.h.Fire(e, nil)
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

// Cancel disarms the timer if pending, removing its event from the heap, or
// from its calendar bucket, so long runs with many re-armed timers do not
// accumulate dead entries.
func (t *Timer) Cancel() {
	if ev := t.ev; ev != nil && ev.gen == t.gen && ev.index != notPending {
		t.engine.remove(ev)
		t.engine.release(ev)
	}
	t.ev = nil
	t.pending = false
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.pending }

// DueAt returns the time the timer is armed for; meaningful only when
// Pending.
func (t *Timer) DueAt() units.Time { return t.dueAt }
