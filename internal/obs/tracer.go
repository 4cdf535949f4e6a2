package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"incastproxy/internal/units"
)

// Event phases, following the Chrome trace-event format.
const (
	PhaseBegin   byte = 'B' // start of a duration slice (flow start, fault inject)
	PhaseEnd     byte = 'E' // end of a duration slice (flow completion, fault clear)
	PhaseInstant byte = 'i' // a point event (trim, NACK, RTO, ...)
	PhaseCounter byte = 'C' // a sampled value (cwnd, queue occupancy)

	// Async phases carry spans (see span.go). Unlike B/E, async slices are
	// matched by id rather than stack position, so client- and server-side
	// spans of one flow may overlap on a track without corrupting nesting.
	PhaseSpanBegin byte = 'b'
	PhaseSpanEnd   byte = 'e'
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val string
}

// Event is one recorded trace entry. At is virtual (simulated) time — or
// wall time for tracers created with NewTracerWithClock; TID groups events
// of one logical track (a flow ID, or 0 for component-level events).
type Event struct {
	At   units.Time
	Ph   byte
	Cat  string
	Name string
	TID  int64
	Args []Arg
	// Val carries the sampled value for PhaseCounter events.
	Val float64
	// Trace and Span link the event into a causal flow tree (span.go);
	// both are zero for plain (non-span) events. Span doubles as the
	// Chrome async id for PhaseSpanBegin/PhaseSpanEnd.
	Trace uint64
	Span  uint64
}

// Tracer is an append-only event log. The zero value is unusable; create
// with NewTracer (virtual time: callers pass timestamps explicitly) or
// NewTracerWithClock (live paths: Now() reads the injected clock). A nil
// *Tracer discards every record, so instrumented code never needs an
// enabled-check. All methods are safe for concurrent use; events keep
// their global record order, so single-threaded (simulator) logs replay
// byte-identically.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	clock  func() units.Time
}

// NewTracer returns an empty tracer with no clock: every record carries a
// caller-supplied (virtual) timestamp and Now() returns 0.
func NewTracer() *Tracer { return &Tracer{} }

// NewTracerWithClock returns a tracer whose Now() reads the given clock.
// Live paths (relay, chaosnet, proxybench) inject a wall-clock adapter
// here — the obs package itself never reads time.Now, keeping the
// wall-clock lint clean — while sim paths may inject the engine clock.
func NewTracerWithClock(clock func() units.Time) *Tracer {
	return &Tracer{clock: clock}
}

// Now returns the injected clock's current time, or 0 if the tracer is
// nil or clockless. Use it to timestamp records on live paths where no
// virtual time exists.
func (t *Tracer) Now() units.Time {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

func (t *Tracer) add(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Begin opens a duration slice named name on track tid.
func (t *Tracer) Begin(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(Event{At: at, Ph: PhaseBegin, Cat: cat, Name: name, TID: tid, Args: args})
}

// End closes the innermost open slice with the same name on track tid.
func (t *Tracer) End(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(Event{At: at, Ph: PhaseEnd, Cat: cat, Name: name, TID: tid, Args: args})
}

// Instant records a point event.
func (t *Tracer) Instant(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(Event{At: at, Ph: PhaseInstant, Cat: cat, Name: name, TID: tid, Args: args})
}

// Count records a sampled value; name identifies the counter track (embed
// the flow/port label in it — Chrome counters are keyed by name, not tid).
func (t *Tracer) Count(at units.Time, cat, name string, tid int64, val float64) {
	t.add(Event{At: at, Ph: PhaseCounter, Cat: cat, Name: name, TID: tid, Val: val})
}

// Append copies every event of other onto t in record order, merging the
// two logs onto one timeline (e.g. one trace file for several schemes).
func (t *Tracer) Append(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	evs := other.Events()
	t.mu.Lock()
	t.events = append(t.events, evs...)
	t.mu.Unlock()
}

// tsMicros renders a picosecond virtual timestamp as the microsecond
// double Chrome expects, with fixed precision for determinism.
func tsMicros(at units.Time) string {
	return strconv.FormatFloat(float64(at)/1e6, 'f', 6, 64)
}

// WriteChromeTrace serializes the log in the Chrome trace-event JSON array
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Counter events become args:{"value": v}; instant events get scope "t"
// (thread) so they render as ticks on their flow track; span events carry
// their span hex as the async id, so begin/end pairs match across
// goroutines and processes. Output is buffered: an event is several fragments,
// and w is usually a file.
func (t *Tracer) WriteChromeTrace(out io.Writer) error {
	w := bufio.NewWriter(out)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range t.Events() {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if err := writeChromeEvent(w, ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n]\n"); err != nil {
		return err
	}
	return w.Flush()
}

func writeChromeEvent(w io.Writer, ev Event) error {
	name, err := json.Marshal(ev.Name)
	if err != nil {
		return err
	}
	cat, err := json.Marshal(ev.Cat)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `{"name":%s,"cat":%s,"ph":"%c","ts":%s,"pid":1,"tid":%d`,
		name, cat, ev.Ph, tsMicros(ev.At), ev.TID); err != nil {
		return err
	}
	if ev.Ph == PhaseInstant {
		if _, err := io.WriteString(w, `,"s":"t"`); err != nil {
			return err
		}
	}
	if ev.Ph == PhaseSpanBegin || ev.Ph == PhaseSpanEnd {
		if _, err := fmt.Fprintf(w, `,"id":"0x%x"`, ev.Span); err != nil {
			return err
		}
	}
	if ev.Ph == PhaseCounter {
		if _, err := fmt.Fprintf(w, `,"args":{"value":%s}`,
			strconv.FormatFloat(ev.Val, 'g', -1, 64)); err != nil {
			return err
		}
	} else if len(ev.Args) > 0 {
		if _, err := io.WriteString(w, `,"args":{`); err != nil {
			return err
		}
		for i, a := range ev.Args {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			k, err := json.Marshal(a.Key)
			if err != nil {
				return err
			}
			v, err := json.Marshal(a.Val)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s:%s", k, v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}")
	return err
}
