package obs

// Causal flow tracing. A SpanContext is a 64-bit trace ID (one per flow)
// plus a 64-bit span ID (one per operation within the flow). Contexts are
// derived with rng.DeriveSeed so a seeded run produces the same IDs every
// time, and child IDs derived independently on both sides of a wire hop
// agree (the relay derives its server-side span IDs from the client's
// context carried in the dial preamble).
//
// Spans are emitted as Chrome async events (PhaseSpanBegin/PhaseSpanEnd)
// keyed by the span ID, so overlapping client- and server-side slices of
// one flow coexist on the trace-ID track without breaking B/E nesting.

import (
	"fmt"

	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

// SpanContext identifies one span within one trace. The zero value is
// invalid (no trace).
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// TraceString renders the trace ID as fixed-width hex (log correlation).
func (sc SpanContext) TraceString() string { return IDString(sc.Trace) }

// IDString renders a trace or span ID as fixed-width hex.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// track folds the trace ID into a positive Chrome tid so every span and
// instant of one flow lands on one track.
func (sc SpanContext) track() int64 { return int64(sc.Trace &^ (1 << 63)) }

// NewSpanContext derives a root context from a seed and labels via
// rng.DeriveSeed — deterministic for seeded runs, well-mixed for
// wall-clock seeds. IDs are never zero so Valid() holds.
func NewSpanContext(seed int64, labels ...int64) SpanContext {
	id := uint64(rng.DeriveSeed(seed, labels...))
	if id == 0 {
		id = 1
	}
	return SpanContext{Trace: id, Span: id}
}

// Child derives the context of a sub-operation. Both ends of a wire hop
// derive identical IDs from the same parent and label, which is how the
// relay's server-side spans join the client's trace without extra bytes
// on the wire.
func (sc SpanContext) Child(label int64) SpanContext {
	id := uint64(rng.DeriveSeed(int64(sc.Span), label))
	if id == 0 {
		id = 1
	}
	return SpanContext{Trace: sc.Trace, Span: id}
}

// Span is a live handle on an open span. A nil *Span (from a nil tracer
// or invalid context) discards everything, so instrumented paths never
// branch.
type Span struct {
	tr   *Tracer
	ctx  SpanContext
	cat  string
	name string
}

// StartRoot opens a root span with an explicit context (the caller minted
// it with NewSpanContext, or received it over the wire). Returns nil on a
// nil tracer or invalid context.
func (t *Tracer) StartRoot(at units.Time, cat, name string, sc SpanContext, args ...Arg) *Span {
	if t == nil || !sc.Valid() {
		return nil
	}
	t.spanEvent(PhaseSpanBegin, at, cat, name, sc, 0, args)
	return &Span{tr: t, ctx: sc, cat: cat, name: name}
}

// StartSpan opens a child span under parent (possibly a remote context
// from the wire), deriving the child ID from (parent.Span, label).
func (t *Tracer) StartSpan(at units.Time, cat, name string, parent SpanContext, label int64, args ...Arg) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	sc := parent.Child(label)
	t.spanEvent(PhaseSpanBegin, at, cat, name, sc, parent.Span, args)
	return &Span{tr: t, ctx: sc, cat: cat, name: name}
}

func (t *Tracer) spanEvent(ph byte, at units.Time, cat, name string, sc SpanContext, parent uint64, args []Arg) {
	full := make([]Arg, 0, len(args)+3)
	full = append(full,
		Arg{Key: "trace", Val: IDString(sc.Trace)},
		Arg{Key: "span", Val: IDString(sc.Span)})
	if parent != 0 {
		full = append(full, Arg{Key: "parent", Val: IDString(parent)})
	}
	full = append(full, args...)
	t.add(Event{At: at, Ph: ph, Cat: cat, Name: name, TID: sc.track(),
		Trace: sc.Trace, Span: sc.Span, Args: full})
}

// Context returns the span's context (zero for a nil span) — put it on
// the wire to extend the trace across a hop.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Child opens a sub-span of s.
func (s *Span) Child(at units.Time, cat, name string, label int64, args ...Arg) *Span {
	if s == nil {
		return nil
	}
	return s.tr.StartSpan(at, cat, name, s.ctx, label, args...)
}

// Annotate records an instant event on the span's trace track — the hook
// for decision-timeline marks (sheds, steers) that belong to a flow.
func (s *Span) Annotate(at units.Time, name string, args ...Arg) {
	if s == nil {
		return
	}
	full := make([]Arg, 0, len(args)+2)
	full = append(full,
		Arg{Key: "trace", Val: IDString(s.ctx.Trace)},
		Arg{Key: "span", Val: IDString(s.ctx.Span)})
	full = append(full, args...)
	s.tr.add(Event{At: at, Ph: PhaseInstant, Cat: s.cat, Name: name,
		TID: s.ctx.track(), Trace: s.ctx.Trace, Span: s.ctx.Span, Args: full})
}

// End closes the span.
func (s *Span) End(at units.Time, args ...Arg) {
	if s == nil {
		return
	}
	s.tr.spanEvent(PhaseSpanEnd, at, s.cat, s.name, s.ctx, 0, args)
}

// TraceSummary aggregates one trace's recorded structure, for invariant
// checks (chaosnet's trace-completeness gate) and tests.
type TraceSummary struct {
	// Spans counts completed (begun and ended) spans by name.
	Spans map[string]int
	// Open counts spans begun but never ended — zero in a complete tree.
	Open int
	// Instants counts instant events linked to the trace, by name.
	Instants map[string]int
}

// Summaries folds the event log into per-trace summaries, matching span
// begin/end pairs by span ID. Events without a trace ID are ignored.
func (t *Tracer) Summaries() map[uint64]*TraceSummary {
	out := make(map[uint64]*TraceSummary)
	open := make(map[uint64]string) // span id -> name
	for _, ev := range t.Events() {
		if ev.Trace == 0 {
			continue
		}
		ts := out[ev.Trace]
		if ts == nil {
			ts = &TraceSummary{Spans: make(map[string]int), Instants: make(map[string]int)}
			out[ev.Trace] = ts
		}
		switch ev.Ph {
		case PhaseSpanBegin:
			open[ev.Span] = ev.Name
			ts.Open++
		case PhaseSpanEnd:
			if name, ok := open[ev.Span]; ok {
				delete(open, ev.Span)
				ts.Open--
				ts.Spans[name]++
			}
		case PhaseInstant:
			ts.Instants[ev.Name]++
		}
	}
	return out
}
