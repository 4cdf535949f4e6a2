package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"incastproxy/internal/units"
)

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
	e.Schedule(10, func(*Engine) { ran++ })
	e.Schedule(20, func(*Engine) { ran++ })
	e.Schedule(30, func(*Engine) { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran = %d, want 3 after full Run", ran)
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
		e.Schedule(units.Time(i), func(e *Engine) {
			ran++
			if ran == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	// A later Run resumes.
	e.Run()
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
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

// Property: for any seeded mix of plain, keyed, same-instant, timer
// arm/re-arm/cancel operations, issued both between events and from inside
// handlers (where dispatch has left the root slot open), events fire in
// exactly the order a stable sort on (time, key with 0 last, scheduling
// sequence) gives, and the heap's index/gen bookkeeping holds after every
// operation.
func TestPropertyHeapOrdering(t *testing.T) {
	type pending struct {
		at   units.Time
		rank uint64
		seq  uint64
		id   int
	}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		var want []pending // the oracle's view of the queue
		nextID := 0
		fired := -1
		ok := true
		fail := func(format string, args ...any) {
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
		// A small time range and few keys force same-instant and same-key ties.
		randomAt := func() units.Time { return e.Now().Add(units.Duration(r.Intn(8))) }
		timers := make([]*Timer, 4)
		timerID := make([]int, len(timers))
		for i := range timers {
			i := i
			timers[i] = NewTimer(e, func(*Engine) { fired = timerID[i] })
		}
		arm := func(k int) {
			if timers[k].Pending() {
				drop(timerID[k])
			}
			timerID[k] = nextID
			nextID++
			at := randomAt()
			timers[k].Arm(at)
			expect(at, 0, timerID[k])
		}
		cancel := func(k int) {
			if timers[k].Pending() {
				drop(timerID[k])
			}
			timers[k].Cancel()
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			id := nextID
			nextID++
			at, key := randomAt(), uint64(r.Intn(4)) // key 0 = plain
			e.ScheduleHandler(at, key, Event(func(*Engine) {
				fired = id
				if depth >= 3 {
					return
				}
				// From inside a handler the root slot is open: the first
				// schedule fills it, anything else has to settle it first.
				switch k := r.Intn(len(timers)); r.Intn(8) {
				case 0:
					schedule(depth + 1)
				case 1:
					schedule(depth + 1)
					schedule(depth + 1)
				case 2:
					arm(k)
				case 3:
					cancel(k)
					schedule(depth + 1)
				case 4:
					if e.Pending() != len(want) {
						fail("pending = %d inside a handler, oracle has %d", e.Pending(), len(want))
					}
					schedule(depth + 1)
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
		}
		check := func() {
			for i, ent := range e.events {
				if ent.ev.index != i {
					fail("record at heap position %d has index %d", i, ent.ev.index)
				}
				if i > 0 && ent.less(&e.events[(i-1)/heapArity]) {
					fail("heap order violated at position %d", i)
				}
			}
			for _, ev := range e.free {
				if ev.index != -1 || ev.h != nil || ev.arg != nil {
					fail("free record still live: index %d", ev.index)
				}
			}
			for i, tm := range timers {
				if tm.Pending() != (tm.ev != nil) {
					fail("timer %d: pending %v but ev %v", i, tm.Pending(), tm.ev)
				}
				if tm.ev != nil && (tm.ev.gen != tm.gen || tm.ev.index < 0 || e.events[tm.ev.index].ev != tm.ev) {
					fail("timer %d holds a stale record", i)
				}
			}
			if e.Pending() != len(want) {
				fail("pending = %d, oracle has %d", e.Pending(), len(want))
			}
		}
		step := func() {
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
			next := want[0]
			want = want[1:]
			fired = -1
			if !e.Step() {
				fail("Step ran nothing with %d events expected", len(want)+1)
			}
			if fired != next.id || e.Now() != next.at {
				fail("fired event %d at %v, want %d at %v", fired, e.Now(), next.id, next.at)
			}
		}
		for op := 0; op < int(n)+32 && ok; op++ {
			switch k := r.Intn(len(timers)); r.Intn(6) {
			case 0, 1:
				schedule(0)
			case 2: // arm or re-arm
				arm(k)
			case 3:
				cancel(k)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Cancelling a timer must remove its event from the heap immediately, not
// leave a dead entry until the deadline; long chaos runs re-arm thousands of
// RTO timers and would otherwise grow the heap monotonically.
func TestCancelRemovesFromHeap(t *testing.T) {
	e := New()
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = NewTimer(e, func(*Engine) { t.Error("cancelled timer fired") })
		timers[i].Arm(units.Time(1000 + i))
	}
	if e.Pending() != n {
		t.Fatalf("pending = %d after arming, want %d", e.Pending(), n)
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after mass cancel, want 0 (dead entries retained)", e.Pending())
	}
	e.Run()
	// Cancel of an already-cancelled timer is a no-op.
	timers[0].Cancel()
}

// A Cancel issued after the timer fired (or after its event record was
// recycled for an unrelated event) must not remove the unrelated event.
func TestStaleCancelDoesNotRemoveRecycledEvent(t *testing.T) {
	e := New()
	tm := NewTimer(e, func(*Engine) {})
	tm.Arm(10)
	e.Run() // fires; the event record returns to the free list
	ran := false
	e.Schedule(20, func(*Engine) { ran = true }) // likely reuses the record
	tm.Cancel()                                  // stale: must be a no-op
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel removed a recycled event (pending = %d)", e.Pending())
	}
	e.Run()
	if !ran {
		t.Fatal("recycled event never ran")
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
	// Warm the free list and heap capacity.
	for i := 0; i < 512; i++ {
		e.After(units.Duration(i), func(*Engine) {})
	}
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(units.Duration(i%7), func(*Engine) {})
			tm.ArmAfter(units.Duration(i % 5))
			if i%2 == 0 {
				tm.Cancel()
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
// full. per-packet holds every one of them in the heap, the way links used
// to; pipes holds them as 256 links would, one self-re-arming entry each, so
// the heap is 64 times shallower and the schedule reuses the dispatched slot.
func BenchmarkDeepHeap(b *testing.B) {
	const mask = 1<<16 - 1
	r := rand.New(rand.NewSource(1))
	delta := make([]units.Duration, mask+1)
	key := make([]uint64, mask+1)
	for i := range delta {
		delta[i], key[i] = units.Duration(1_900_000+r.Int63n(200_000)), uint64(r.Int63())
	}
	b.Run("per-packet", func(b *testing.B) {
		e := New()
		noop := Event(func(*Engine) {})
		for i := 0; i < 16384; i++ {
			e.ScheduleHandler(units.Time(r.Int63n(2_000_000)), uint64(r.Int63()), noop, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleHandler(e.Now().Add(delta[i&mask]), key[i&mask], noop, nil)
			e.Step()
		}
	})
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
}
