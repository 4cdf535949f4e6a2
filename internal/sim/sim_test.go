package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"incastproxy/internal/units"
)

// window is the span of the calendar: an event at least this far ahead is
// heap-resident whatever the clock reads; one nearer than window-bucketWidth
// is calendar-resident, unless its bucket is crowded. The contract tests
// below schedule on both sides of it so that each sees the two homes merged.
const (
	bucketWidth = units.Duration(1) << bucketShift
	window      = numBuckets * bucketWidth
)

// inWindow reports whether schedule would offer an event at time at to the
// calendar.
func inWindow(e *Engine, at units.Time) bool {
	return uint64(at)>>bucketShift-uint64(e.now)>>bucketShift < numBuckets
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var got []units.Time
	times := []units.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		d := d
		e.Schedule(units.Time(d), func(e *Engine) { got = append(got, e.Now()) })
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestSchedulingDuringRun(t *testing.T) {
	e := New()
	count := 0
	var step Event
	step = func(e *Engine) {
		count++
		if count < 100 {
			e.After(10, step)
		}
	}
	e.After(0, step)
	end := e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if end != units.Time(99*10) {
		t.Fatalf("end time = %v, want 990ps", end)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := New()
	ran := 0
	far := units.Time(window)
	for _, at := range []units.Time{10, 20, 30, far + 10, far + 20, far + 30} {
		e.Schedule(at, func(*Engine) { ran++ })
	}
	if e.near != 3 || len(e.events) != 3 {
		t.Fatalf("calendar holds %d events and the heap %d, want 3 and 3", e.near, len(e.events))
	}
	e.RunUntil(20)
	if ran != 2 || e.Pending() != 4 {
		t.Fatalf("ran = %d with %d pending after RunUntil(20), want 2 and 4", ran, e.Pending())
	}
	// The deadline falls among the heap's events, with the calendar's last
	// one before it.
	e.RunUntil(far + 20)
	if ran != 5 || e.Pending() != 1 {
		t.Fatalf("ran = %d with %d pending after RunUntil(far+20), want 5 and 1", ran, e.Pending())
	}
	e.Run()
	if ran != 6 {
		t.Fatalf("ran = %d, want 6 after full Run", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.Schedule(50, func(*Engine) {})
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	for i := 0; i < 10; i++ {
		// Even ones near, odd ones far: the run stops among the calendar's
		// events and resumes through the rest of them, then the heap's.
		e.Schedule(units.Time(i).Add(units.Duration(i%2)*window), func(e *Engine) {
			ran++
			if ran == 3 {
				e.Stop()
			}
		})
	}
	if end := e.Run(); ran != 3 || end != 4 || e.near != 2 || len(e.events) != 5 {
		t.Fatalf("ran = %d and stopped at %v with %d near and %d far, want 3 at 4ps with 2 and 5", ran, end, e.near, len(e.events))
	}
	// A later Run resumes.
	if end := e.Run(); ran != 10 || end != units.Time(9).Add(window) {
		t.Fatalf("ran = %d, ending at %v, want 10 at %v", ran, end, units.Time(9).Add(window))
	}
}

func TestStep(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func(*Engine) { ran++ })
	e.Schedule(2, func(*Engine) { ran++ })
	if !e.Step() || ran != 1 {
		t.Fatal("first Step should run one event")
	}
	if !e.Step() || ran != 2 {
		t.Fatal("second Step should run one event")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestTimerRearmAndCancel(t *testing.T) {
	e := New()
	fired := 0
	tm := NewTimer(e, func(*Engine) { fired++ })
	tm.ArmAfter(100)
	tm.ArmAfter(200) // replaces the first schedule
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (re-arm must supersede)", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("now = %v, want 200ps", e.Now())
	}

	tm.ArmAfter(50)
	tm.Cancel()
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after cancel, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("cancelled timer must not be pending")
	}
}

func TestTimerPendingAndDueAt(t *testing.T) {
	e := New()
	tm := NewTimer(e, func(*Engine) {})
	tm.Arm(500)
	if !tm.Pending() || tm.DueAt() != 500 {
		t.Fatalf("pending=%v dueAt=%v", tm.Pending(), tm.DueAt())
	}
	e.Run()
	if tm.Pending() {
		t.Fatal("fired timer must not be pending")
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 25; i++ {
		e.Schedule(units.Time(i), func(*Engine) {})
	}
	e.Run()
	if e.Processed() != 25 {
		t.Fatalf("processed = %d, want 25", e.Processed())
	}
}

// Which of the two homes' corners the property test's seeds reached, summed
// over all of them: a property that never spills or never cancels from a
// bucket has stopped testing the calendar.
type homeCoverage struct {
	spills, tailAppends, walks                   int
	calCancels, heapCancels, toHeap, toCalendar  int
	firedFromCalendar, firedFromHeap, clockJumps int
	ringWraps                                    int
}

// Property: for any seeded mix of plain, keyed, same-instant, near, far,
// burst and timer arm/re-arm/cancel operations, issued both between events
// and from inside handlers, with Step and RunUntil interleaved, events fire
// in exactly the order a stable sort on (time, key with 0 last, scheduling
// sequence) gives, wherever they sat, and the bookkeeping of both homes holds
// after every operation.
func TestPropertyEventOrdering(t *testing.T) {
	type pending struct {
		at   units.Time
		rank uint64
		seq  uint64
		id   int
	}
	var cov homeCoverage
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		var want []pending // the oracle's view of the queue
		nextID := 0
		fired := 0
		ok := true
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			ok = false
		}
		// expect records an event the engine was just handed.
		expect := func(at units.Time, key uint64, id int) {
			if key == 0 {
				key = ^uint64(0)
			}
			want = append(want, pending{at, key, e.Scheduled(), id})
		}
		drop := func(id int) {
			for i, p := range want {
				if p.id == id {
					want = append(want[:i], want[i+1:]...)
					return
				}
			}
		}
		// onFire is every handler's first act: the event that fires must be
		// the oracle's first, at the oracle's time.
		onFire := func(id int) {
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.rank != b.rank {
					return a.rank < b.rank
				}
				return a.seq < b.seq
			})
			fired++
			if len(want) == 0 || want[0].id != id || want[0].at != e.Now() {
				fail("fired event %d at %v, oracle's next is %+v", id, e.Now(), want)
				return
			}
			want = want[1:]
		}
		// Offsets from the current instant: ties, the same bucket, nearby
		// buckets, either side of the window's far edge, well beyond it, and
		// the ms scale of a retransmission timer.
		randomAt := func() units.Time {
			var d int64
			switch r.Intn(9) {
			case 0:
				d = 0
			case 1, 2:
				d = r.Int63n(8)
			case 3:
				d = r.Int63n(int64(bucketWidth))
			case 4, 5:
				d = r.Int63n(8 * int64(bucketWidth))
			case 6:
				d = int64(window-bucketWidth) + r.Int63n(2*int64(bucketWidth))
			case 7:
				d = int64(window) + r.Int63n(2*int64(window))
			case 8:
				d = int64(units.Millisecond) + r.Int63n(int64(units.Millisecond))
			}
			return e.Now().Add(units.Duration(d))
		}
		timers := make([]*Timer, 4)
		timerID := make([]int, len(timers))
		for i := range timers {
			i := i
			timers[i] = NewTimer(e, func(*Engine) { onFire(timerID[i]) })
		}
		cancel := func(k int) int32 {
			home := int32(notPending)
			if timers[k].Pending() {
				drop(timerID[k])
				if home = timers[k].ev.index; home == inCalendar {
					cov.calCancels++
				} else {
					cov.heapCancels++
				}
			}
			timers[k].Cancel()
			return home
		}
		arm := func(k int) {
			from := cancel(k)
			timerID[k] = nextID
			nextID++
			at := randomAt()
			timers[k].Arm(at)
			expect(at, 0, timerID[k])
			switch to := timers[k].ev.index; {
			case from == inCalendar && to >= 0:
				cov.toHeap++
			case from >= 0 && to == inCalendar:
				cov.toCalendar++
			}
		}
		var schedule func(at units.Time, key uint64, depth int)
		schedule = func(at units.Time, key uint64, depth int) {
			id := nextID
			nextID++
			near, heapLen, tail := inWindow(e, at), len(e.events), e.buckets[slot(at)].tail
			e.ScheduleHandler(at, key, Event(func(*Engine) {
				onFire(id)
				if depth >= 3 {
					return
				}
				switch k := r.Intn(len(timers)); r.Intn(8) {
				case 0:
					schedule(randomAt(), uint64(r.Intn(4)), depth+1)
				case 1:
					schedule(randomAt(), uint64(r.Intn(4)), depth+1)
					schedule(randomAt(), uint64(r.Intn(4)), depth+1)
				case 2:
					arm(k)
				case 3:
					cancel(k)
					schedule(randomAt(), uint64(r.Intn(4)), depth+1)
				case 4:
					if e.Pending() != len(want) {
						fail("pending = %d inside a handler, oracle has %d", e.Pending(), len(want))
					}
					schedule(randomAt(), uint64(r.Intn(4)), depth+1)
				case 5:
					at, ok := e.NextEventAt()
					if ok != (len(want) > 0) {
						fail("NextEventAt ok = %v inside a handler with %d events expected", ok, len(want))
					}
					for _, p := range want {
						if p.at < at {
							fail("NextEventAt = %v inside a handler, but an event is due at %v", at, p.at)
						}
					}
				}
			}), nil)
			expect(at, key, id)
			switch {
			case near && len(e.events) > heapLen:
				cov.spills++
			case near && tail != nil && e.buckets[slot(at)].tail != tail:
				cov.tailAppends++
			case near && tail != nil:
				cov.walks++
			}
			if !near && len(e.events) == heapLen {
				fail("event at %v, beyond the window at %v, did not go to the heap", at, e.Now())
			}
		}
		// burst puts more events on one instant than a schedule will walk
		// past: in rising order they append at the bucket's tail, in mixed
		// key order the deep ones spill to the heap.
		burst := func(mixed bool) {
			at := randomAt()
			for i := walkBound + 1 + r.Intn(2*walkBound); i > 0; i-- {
				key := uint64(0)
				if mixed {
					key = uint64(r.Intn(64))
				}
				schedule(at, key, 3)
			}
		}
		before := func(a, b *scheduledEvent) bool {
			x, y := heapEntry{a.at, a.rank, a.seq, a}, heapEntry{b.at, b.rank, b.seq, b}
			return x.less(&y)
		}
		check := func() {
			t.Helper()
			for i, ent := range e.events {
				if int(ent.ev.index) != i {
					fail("record at heap position %d has index %d", i, ent.ev.index)
				}
				if i > 0 && ent.less(&e.events[(i-1)/heapArity]) {
					fail("heap order violated at position %d", i)
				}
			}
			near, nowBucket := 0, uint64(e.now)>>bucketShift
			for i := range e.buckets {
				b := &e.buckets[i]
				if bit := e.occupied[i/64]>>(i%64)&1 == 1; bit != (b.head != nil) || bit != (b.tail != nil) {
					fail("slot %d: occupied bit %v, head %v, tail %v", i, bit, b.head, b.tail)
				}
				var last *scheduledEvent
				for ev := b.head; ev != nil; last, ev = ev, ev.next {
					near++
					if ab := uint64(ev.at) >> bucketShift; ev.index != inCalendar || ab&(numBuckets-1) != uint64(i) || ab-nowBucket >= numBuckets {
						fail("slot %d holds a record with index %d due at %v, now %v", i, ev.index, ev.at, e.now)
					}
					if last != nil && !before(last, ev) {
						fail("slot %d out of firing order at %v", i, ev.at)
					}
				}
				if last != b.tail {
					fail("slot %d: tail is not the last record", i)
				}
			}
			if near != e.near {
				fail("calendar holds %d records, near = %d", near, e.near)
			}
			for ev := e.free; ev != nil; ev = ev.next {
				if ev.index != notPending || ev.h != nil || ev.arg != nil {
					fail("free record still live: index %d", ev.index)
				}
			}
			for i, tm := range timers {
				if tm.Pending() != (tm.ev != nil) {
					fail("timer %d: pending %v but ev %v", i, tm.Pending(), tm.ev)
				}
				if tm.ev == nil {
					continue
				}
				found := tm.ev.gen == tm.gen
				switch idx := tm.ev.index; {
				case idx >= 0:
					found = found && e.events[idx].ev == tm.ev && e.events[idx].at == tm.DueAt()
				case idx == inCalendar:
					ev := e.buckets[slot(tm.DueAt())].head
					for ev != nil && ev != tm.ev {
						ev = ev.next
					}
					found = found && ev != nil && ev.at == tm.DueAt()
				default:
					found = false
				}
				if !found {
					fail("timer %d holds a stale record", i)
				}
			}
			if e.Pending() != len(want) {
				fail("pending = %d, oracle has %d", e.Pending(), len(want))
			}
			at, any := e.NextEventAt()
			for _, p := range want {
				if !any || p.at < at {
					fail("NextEventAt = %v,%v with an event due at %v", at, any, p.at)
				}
			}
			if any && len(want) == 0 {
				fail("NextEventAt = %v with nothing pending", at)
			}
		}
		step := func() {
			was, near := fired, e.near
			if !e.Step() || fired != was+1 {
				fail("Step ran %d events with %d expected", fired-was, len(want)+1)
			}
			if e.near < near {
				cov.firedFromCalendar++
			} else {
				cov.firedFromHeap++
			}
		}
		// runUntil must fire everything due by the deadline, handlers'
		// follow-ups included, and leave the clock on the deadline, which is
		// inside a bucket or, past the window, a jump over the whole ring.
		runUntil := func(d units.Duration) {
			deadline, was := e.Now().Add(d), uint64(e.now)>>bucketShift
			if got := e.RunUntil(deadline); got != deadline || e.Now() != deadline {
				fail("RunUntil(%v) = %v, now %v", deadline, got, e.Now())
			}
			for _, p := range want {
				if p.at <= deadline {
					fail("RunUntil(%v) left event %d due at %v", deadline, p.id, p.at)
				}
			}
			if d > window {
				cov.clockJumps++
			}
			cov.ringWraps += int((uint64(e.now)>>bucketShift - was) / numBuckets)
		}
		for op := 0; op < int(n)+64 && ok; op++ {
			switch k := r.Intn(len(timers)); r.Intn(12) {
			case 0, 1, 2:
				schedule(randomAt(), uint64(r.Intn(4)), 0) // key 0 = plain
			case 3: // arm or re-arm
				arm(k)
			case 4:
				cancel(k)
			case 5:
				burst(r.Intn(2) == 0)
			case 6:
				runUntil(units.Duration(r.Int63n(4 * int64(bucketWidth))))
			case 7:
				runUntil(window/2 + units.Duration(r.Int63n(3*int64(window))))
			default:
				if len(want) > 0 {
					step()
				}
			}
			check()
		}
		for len(want) > 0 && ok {
			step()
			check()
		}
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
	if cov.spills == 0 || cov.tailAppends == 0 || cov.walks == 0 || cov.calCancels == 0 || cov.heapCancels == 0 ||
		cov.toHeap == 0 || cov.toCalendar == 0 || cov.firedFromCalendar == 0 || cov.firedFromHeap == 0 ||
		cov.clockJumps == 0 || cov.ringWraps < 3 {
		t.Errorf("the seeds did not reach every corner of the two homes: %+v", cov)
	}
}

// Cancelling a timer must remove its event from the heap immediately, not
// leave a dead entry until the deadline; long outages re-arm thousands of
// RTO timers and would otherwise grow the heap monotonically.
func TestCancelRemovesFromHeap(t *testing.T) {
	e := New()
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = NewTimer(e, func(*Engine) { t.Error("cancelled timer fired") })
		// Odd ones a retransmission timeout away, in the heap; even ones
		// near, a few to a calendar bucket.
		timers[i].Arm(units.Time(1000 + 997*i).Add(units.Duration(i%2) * units.Millisecond))
	}
	if e.Pending() != n || e.near != n/2 || len(e.events) != n/2 {
		t.Fatalf("pending = %d after arming (%d near, %d far), want %d, half each", e.Pending(), e.near, len(e.events), n)
	}
	// Cancel out of arming order, so a bucket loses its middle, its head and
	// its tail, and the heap entries from every depth.
	for i := range timers {
		timers[i*7%n].Cancel()
	}
	if e.Pending() != 0 || e.near != 0 || len(e.events) != 0 || e.occupied != [len(e.occupied)]uint64{} {
		t.Fatalf("pending = %d after mass cancel (%d near, %d far), want 0 (dead entries retained)", e.Pending(), e.near, len(e.events))
	}
	e.Run()
	// Cancel of an already-cancelled timer is a no-op.
	timers[0].Cancel()
}

// A Cancel issued after the timer fired (or after its event record was
// recycled for an unrelated event) must not remove the unrelated event.
func TestStaleCancelDoesNotRemoveRecycledEvent(t *testing.T) {
	// The record is recycled into the other home than the timer left it in,
	// and into the same one.
	for _, c := range []struct{ timer, reuse units.Duration }{{10, 20}, {10, window}, {window, 20}, {window, window}} {
		e := New()
		tm := NewTimer(e, func(*Engine) {})
		tm.ArmAfter(c.timer)
		stale, gen := tm.ev, tm.gen
		e.Run() // fires; the event record returns to the free list
		ran := false
		e.After(c.reuse, func(*Engine) { ran = true })
		if stale.h == nil {
			t.Fatalf("timer %v, reuse %v: the record was not reused", c.timer, c.reuse)
		}
		tm.ev, tm.gen = stale, gen // a timer that kept its pointer past the firing
		tm.Cancel()                // stale: must be a no-op
		if e.Pending() != 1 {
			t.Fatalf("timer %v, reuse %v: stale Cancel removed a recycled event (pending = %d)", c.timer, c.reuse, e.Pending())
		}
		e.Run()
		if !ran {
			t.Fatalf("timer %v, reuse %v: recycled event never ran", c.timer, c.reuse)
		}
	}
}

// Arming a timer for a deadline already in the past fires it at the current
// time instead of regressing the clock.
func TestArmInPastFiresNow(t *testing.T) {
	e := New()
	e.Schedule(100, func(*Engine) {})
	e.Run()
	fired := units.Time(0)
	tm := NewTimer(e, func(e *Engine) { fired = e.Now() })
	tm.Arm(50) // before now=100
	e.Run()
	if fired != 100 {
		t.Fatalf("past-armed timer fired at %v, want 100 (now)", fired)
	}
}

// The steady-state event loop must not allocate: records are recycled
// through the free list and a timer schedules itself as the handler.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	e := New()
	tm := NewTimer(e, func(*Engine) {})
	rto := NewTimer(e, func(*Engine) {})
	// Warm the free list and heap capacity.
	for i := 0; i < 512; i++ {
		e.After(units.Duration(i%2)*window+units.Duration(i), func(*Engine) {})
	}
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			// Near events in one bucket, out of order and in bursts past
			// the walk bound (calendar, spilling to the heap), far ones (heap),
			// and a timer re-armed and cancelled in each home.
			e.ScheduleHandler(e.Now().Add(units.Duration(i%7)), uint64(64-i), Event(func(*Engine) {}), nil)
			e.After(window+units.Duration(i%7), func(*Engine) {})
			tm.ArmAfter(units.Duration(i % 5))
			rto.ArmAfter(units.Millisecond + units.Duration(i%5))
			if i%2 == 0 {
				tm.Cancel()
				rto.Cancel()
			}
		}
		e.Run()
	})
	// Budget one stray allocation for closure captures in this test body;
	// the engine itself should be at zero.
	if avg > 1 {
		t.Fatalf("steady-state event loop allocates %.1f allocs/run, want ~0", avg)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(units.Duration(i%1000), func(*Engine) {})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now().Add(500))
		}
	}
	e.Run()
}

func BenchmarkTimerRearm(b *testing.B) {
	e := New()
	tm := NewTimer(e, func(*Engine) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.ArmAfter(units.Duration(100 + i%10)) // re-arm removes the old entry eagerly
	}
	tm.Cancel()
	e.Run()
}

// rearmer is a handler that schedules itself again every time it fires, as a
// link with packets in flight does.
type rearmer struct {
	delta []units.Duration
	key   []uint64
	i     int
}

func (r *rearmer) Fire(e *Engine, _ any) {
	r.i++
	k := r.i & (len(r.delta) - 1)
	e.ScheduleHandler(e.Now().Add(r.delta[k]), r.key[k], r, nil)
}

// BenchmarkDeepHeap measures one keyed schedule plus one dispatch while 16k
// deliveries are outstanding, as on a Fig 2 cell while a long-haul link is
// full. per-packet holds every one of them in the engine, the way links used
// to, ~2 us ahead: inside the calendar's window, 32 to a bucket, so about
// half find their place within the walk bound and the rest spill. pipes
// holds them as 256 links would, one self-re-arming event each, all on the
// calendar. The other two rows are the fallback paths, each on its own: far
// puts every event beyond the window, so the heap alone serves them, and
// dense puts 4096 events, three keyed in random order to one plain, on one
// instant and drains them, so every keyed one past the first few walks the
// bound and spills while the plain ones append at the tail.
func BenchmarkDeepHeap(b *testing.B) {
	const mask = 1<<16 - 1
	r := rand.New(rand.NewSource(1))
	delta := make([]units.Duration, mask+1)
	key := make([]uint64, mask+1)
	for i := range delta {
		delta[i], key[i] = units.Duration(1_900_000+r.Int63n(200_000)), uint64(r.Int63())
	}
	noop := Event(func(*Engine) {})
	perPacket := func(b *testing.B, ahead units.Duration) {
		e := New()
		for i := 0; i < 16384; i++ {
			e.ScheduleHandler(units.Time(r.Int63n(2_000_000)).Add(ahead), uint64(r.Int63()), noop, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleHandler(e.Now().Add(ahead+delta[i&mask]), key[i&mask], noop, nil)
			e.Step()
		}
	}
	b.Run("per-packet", func(b *testing.B) { perPacket(b, 0) })
	b.Run("far", func(b *testing.B) { perPacket(b, window) })
	b.Run("pipes", func(b *testing.B) {
		e := New()
		// A link with 64 packets in flight over 2 us delivers one every
		// 1/64th of that.
		gap := make([]units.Duration, len(delta))
		for k := range gap {
			gap[k] = delta[k] / 64
		}
		for i := 0; i < 256; i++ {
			e.ScheduleHandler(units.Time(r.Int63n(2_000_000/64)), uint64(r.Int63()),
				&rearmer{delta: gap, key: key, i: i * 251}, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("dense", func(b *testing.B) {
		e := New()
		b.ReportAllocs()
		for i := 0; i < b.N; {
			at := e.Now().Add(bucketWidth)
			for n := min(4096, b.N-i); n > 0; n-- {
				k := key[i&mask]
				if i%4 == 0 {
					k = 0
				}
				e.ScheduleHandler(at, k, noop, nil)
				i++
			}
			e.Run()
		}
		if e.Processed() != uint64(b.N) {
			b.Fatalf("ran %d events of %d", e.Processed(), b.N)
		}
	})
}
