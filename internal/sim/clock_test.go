package sim

import (
	"testing"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
)

// The clock contract: a non-stopped RunUntil exit leaves the clock at the
// deadline, even when the window held no events at all, so a caller that
// steps a run window by window sees time move through idle windows too.
func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := New()
	e.Schedule(10, func(*Engine) {})
	e.Schedule(100, func(*Engine) {})

	if got := e.RunUntil(50); got != 50 {
		t.Fatalf("RunUntil(50) = %v, want 50", got)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v after RunUntil(50), want 50", e.Now())
	}

	// An entirely event-free window still advances.
	if got := e.RunUntil(70); got != 70 {
		t.Fatalf("RunUntil(70) = %v, want 70", got)
	}

	// The queued later event is untouched and runs at its own time.
	if got := e.RunUntil(200); got != 200 {
		t.Fatalf("RunUntil(200) = %v, want 200", got)
	}
	if e.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", e.Processed())
	}
}

// Run (the MaxTime sentinel) keeps the historical behavior: it returns the
// last executed event's time, not some deadline.
func TestRunReturnsLastEventTime(t *testing.T) {
	e := New()
	e.Schedule(10, func(*Engine) {})
	e.Schedule(42, func(*Engine) {})
	if got := e.Run(); got != 42 {
		t.Fatalf("Run() = %v, want 42", got)
	}
}

// A Stop issued while no run is in progress is sticky: the next run consumes
// it and returns immediately without executing anything or moving the clock.
func TestStopBeforeRunIsSticky(t *testing.T) {
	// Once with the waiting event near, in the calendar, and once far, in
	// the heap.
	for _, at := range []units.Time{5, units.Time(window) + 5} {
		e := New()
		ran := false
		e.Schedule(at, func(*Engine) { ran = true })

		e.Stop()
		if got := e.RunUntil(at + 95); got != 0 {
			t.Fatalf("event at %v: stopped RunUntil = %v, want 0 (the clock must not move)", at, got)
		}
		if ran {
			t.Fatalf("event at %v ran despite pending stop", at)
		}
		if e.Pending() != 1 {
			t.Fatalf("event at %v: pending = %d, want 1", at, e.Pending())
		}

		// The stop is consumed exactly once: the next run proceeds normally
		// and, being non-stopped, advances to the deadline.
		if got := e.RunUntil(at + 95); got != at+95 {
			t.Fatalf("event at %v: second RunUntil = %v, want %v", at, got, at+95)
		}
		if !ran {
			t.Fatalf("event at %v did not run after consuming the stop", at)
		}
	}
}

// A Stop issued by an event freezes the clock at that event and is likewise
// consumed exactly once.
func TestStopInsideEventFreezesClock(t *testing.T) {
	// The stopping event and the one left queued, each in either home: the
	// last pair has a far stopper that the clock has brought inside the
	// window by the time a near event is scheduled behind it.
	far := units.Time(window)
	for _, c := range []struct{ stop, later units.Time }{{7, 50}, {7, far + 50}, {far + 7, far + 50}} {
		e := New()
		e.Schedule(c.stop, func(e *Engine) { e.Stop() })
		e.RunUntil(c.stop - 7)
		e.Schedule(c.later, func(*Engine) {})

		if got := e.RunUntil(c.later + 50); got != c.stop {
			t.Fatalf("stop at %v: stopped RunUntil = %v", c.stop, got)
		}
		if e.Pending() != 1 {
			t.Fatalf("stop at %v: pending = %d, want 1 (later event stays queued)", c.stop, e.Pending())
		}
		// Consumed: resuming runs the rest and advances to the deadline.
		if got := e.RunUntil(c.later + 50); got != c.later+50 {
			t.Fatalf("stop at %v: resumed RunUntil = %v, want %v", c.stop, got, c.later+50)
		}
		if e.Processed() != 2 {
			t.Fatalf("stop at %v: processed = %d, want 2", c.stop, e.Processed())
		}
	}
}

// Keyed events at one instant run in key order, ahead of plain (key 0)
// events, regardless of scheduling order; equal keys keep FIFO.
func TestScheduleKeyedOrdering(t *testing.T) {
	e := New()
	var order []string
	rec := func(name string) Event {
		return func(*Engine) { order = append(order, name) }
	}
	// Scheduled deliberately out of rank order.
	e.Schedule(10, rec("plain-a"))
	e.ScheduleHandler(10, 30, rec("k30"), nil)
	e.ScheduleHandler(10, 20, rec("k20-first"), nil)
	e.Schedule(10, rec("plain-b"))
	e.ScheduleHandler(10, 20, rec("k20-second"), nil)

	e.Run()
	want := []string{"k20-first", "k20-second", "k30", "plain-a", "plain-b"}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Key ranks only separate events at the same instant; time still dominates.
func TestScheduleKeyedTimeDominatesKey(t *testing.T) {
	e := New()
	var order []int
	e.ScheduleHandler(20, 1, Event(func(*Engine) { order = append(order, 20) }), nil)
	e.ScheduleHandler(10, 99, Event(func(*Engine) { order = append(order, 10) }), nil)
	e.Run()
	if len(order) != 2 || order[0] != 10 || order[1] != 20 {
		t.Fatalf("order = %v, want [10 20]", order)
	}
}

func TestNextEventAt(t *testing.T) {
	e := New()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty engine reported an event")
	}
	e.Schedule(30, func(*Engine) {})
	e.Schedule(10, func(*Engine) {})
	if at, ok := e.NextEventAt(); !ok || at != 10 {
		t.Fatalf("NextEventAt = %v,%v, want 10,true", at, ok)
	}
	e.RunUntil(15)
	if at, ok := e.NextEventAt(); !ok || at != 30 {
		t.Fatalf("NextEventAt after partial run = %v,%v, want 30,true", at, ok)
	}

	// The earliest event may be in either home. One scheduled from afar
	// stays in the heap when the clock comes close, so a calendar event
	// scheduled then can be the later of the two.
	far := units.Time(window)
	e.Schedule(far+40, func(*Engine) {})
	if at, _ := e.NextEventAt(); at != 30 {
		t.Fatalf("NextEventAt = %v with a calendar event at 30 and a heap event behind it", at)
	}
	e.RunUntil(far)
	e.Schedule(far+60, func(*Engine) {})
	if at, _ := e.NextEventAt(); at != far+40 || e.near != 1 || len(e.events) != 1 {
		t.Fatalf("NextEventAt = %v with a heap event at %v and a calendar event behind it (%d near, %d far)",
			at, far+40, e.near, len(e.events))
	}
	e.RunUntil(far + 40)
	if at, ok := e.NextEventAt(); !ok || at != far+60 {
		t.Fatalf("NextEventAt = %v,%v with only the calendar event at %v left", at, ok, far+60)
	}
	e.Run()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt on a drained engine reported an event")
	}
}

func TestScheduledCountsKeyedAndPlain(t *testing.T) {
	e := New()
	e.Schedule(1, func(*Engine) {})
	e.ScheduleHandler(2, 7, Event(func(*Engine) {}), nil)
	if e.Scheduled() != 2 {
		t.Fatalf("Scheduled = %d, want 2", e.Scheduled())
	}
}

// fifoSource is a source of time-ordered events that keeps all but the
// earliest outside the heap, the way a link keeps its packets in flight.
type fifoSource struct {
	at    []units.Time
	fired []units.Time
}

func (f *fifoSource) add(e *Engine, at units.Time) {
	f.at = append(f.at, at)
	if len(f.at) == 1 {
		e.ScheduleHandler(at, 1, f, nil)
	} else {
		e.Park()
	}
}

func (f *fifoSource) Fire(e *Engine, _ any) {
	f.fired = append(f.fired, e.Now())
	if f.at = f.at[1:]; len(f.at) > 0 {
		e.Unpark(f.at[0], 1, f, nil)
	}
}

// A parked event counts as scheduled and, in the exported gauge, as pending,
// exactly as if it sat in the heap: the counters must not tell a source that
// parks from one that schedules every event.
func TestParkedEventsCountAsScheduledAndPending(t *testing.T) {
	// The source's head is in the calendar for the near times and in the
	// heap for the far ones, and moves from one to the other in between.
	far := units.Time(window)
	times := []units.Time{10, 20, 30, far + 40, 2*far + 50, 2*far + 60, 2*far + 70}
	gauge := func(e *Engine) int64 {
		reg := obs.NewRegistry()
		e.Instrument(reg)
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "sim_pending_events" {
				return g.Value
			}
		}
		t.Fatal("no sim_pending_events gauge")
		return 0
	}

	plain, parked := New(), New()
	src := &fifoSource{}
	for _, at := range times {
		plain.ScheduleHandler(at, 1, Event(func(*Engine) {}), nil)
		src.add(parked, at)
	}
	if parked.Pending() != 1 || parked.Parked() != uint64(len(times)-1) {
		t.Fatalf("engine holds %d events and %d are parked, want 1 and %d", parked.Pending(), parked.Parked(), len(times)-1)
	}
	for step := 0; ; step++ {
		if plain.Scheduled() != parked.Scheduled() || plain.Processed() != parked.Processed() ||
			gauge(plain) != gauge(parked) {
			t.Fatalf("after %d events: scheduled %d/%d processed %d/%d pending gauge %d/%d (plain/parked)", step,
				plain.Scheduled(), parked.Scheduled(), plain.Processed(), parked.Processed(), gauge(plain), gauge(parked))
		}
		if at, ok := parked.NextEventAt(); ok && at != times[step] {
			t.Fatalf("NextEventAt = %v with event %d next, want %v", at, step, times[step])
		}
		if !plain.Step() {
			break
		}
		parked.Step()
	}
	if len(src.fired) != len(times) || parked.Step() || parked.Parked() != 0 {
		t.Fatalf("parked source fired at %v, %d still parked", src.fired, parked.Parked())
	}
}

// Recycled event records must not leak a previous keyed event's key into a
// later plain Schedule.
func TestRecycledEventResetsKey(t *testing.T) {
	e := New()
	e.ScheduleHandler(5, 123, Event(func(*Engine) {}), nil)
	e.Run() // record returns to the free list with key 123

	var order []string
	e.Schedule(10, func(*Engine) { order = append(order, "recycled-plain") })
	e.ScheduleHandler(10, 1, Event(func(*Engine) { order = append(order, "keyed") }), nil)
	e.Run()
	if len(order) != 2 || order[0] != "keyed" || order[1] != "recycled-plain" {
		t.Fatalf("order = %v, want [keyed recycled-plain]", order)
	}
}
