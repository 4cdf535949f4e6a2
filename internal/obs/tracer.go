package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"slices"
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

// Arg is one key/value annotation on an event. Build a string arg as a
// literal, Arg{Key: k, Val: v}, and an integer one with Int: the tracer
// stores the integer and renders it only at export, as its decimal digits.
type Arg struct {
	Key string
	Val string
	n   uint64  // the value of an Int or trace/span ID arg
	typ argType // how n renders; argString uses Val
}

// argType is how an arg's value renders.
type argType uint8

const (
	argString argType = iota // Val
	argInt                   // n as a signed decimal
	argID                    // n as IDString's fixed-width hex
)

// Int is the arg key with integer value v.
func Int(key string, v int64) Arg { return Arg{Key: key, n: uint64(v), typ: argInt} }

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

// record is an event as the tracer stores it: its strings are ids into the
// tracer's table, its first arg is held in it and any others are a run of
// the arg store, so it holds no pointer and a chunk of records is never
// scanned by the garbage collector.
type record struct {
	at     units.Time
	tid    int64
	v      uint64 // a counter's sample (float64 bits), or its first arg's value
	cat    uint32
	name   uint32
	key    uint32 // its first arg's key
	more   uint32 // where its second and later args start in the arg store
	nargs  uint32
	typ    argType // its first arg's
	ph     byte
	linked bool // its first two args are its trace and span IDs (span.go)
}

// argRecord is an Arg as the tracer stores it: the key's id, and the value's
// string id, integer or trace/span ID.
type argRecord struct {
	key uint32
	typ argType
	val uint64
}

// Records and args are stored in fixed-size chunks that are allocated once
// and never moved or grown, so recording costs one allocation per chunk and
// copies nothing.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type (
	recordChunk [chunkLen]record
	argChunk    [chunkLen]argRecord
)

// A tracer looks a string up in a cache of the last one interned at each of
// 1<<internCacheBits slots, picked by its length and first, middle and last bytes,
// before it hashes the whole string for its map: a hot call site records the
// same few strings (literals, or names it rendered once) over and over, and
// comparing a string with itself stops at its address.
const internCacheBits = 8

// Tracer is an append-only event log. The zero value is unusable; create
// with NewTracer (virtual time: callers pass timestamps explicitly) or
// NewTracerWithClock (live paths: Now() reads the injected clock). A nil
// *Tracer discards every record, so instrumented code never needs an
// enabled-check. All methods are safe for concurrent use; events keep
// their global record order, so single-threaded (simulator) logs replay
// byte-identically.
//
// Every category, name, arg key and string arg value is interned: stored
// once in the tracer's table, and as its id in each record.
type Tracer struct {
	mu    sync.Mutex
	clock func() units.Time
	store // under mu
	ids   map[string]uint32
	cache [1 << internCacheBits]struct {
		s  string
		id uint32 // id+1; 0 is an empty slot
	}
}

// store is a tracer's records, args and string table. Up to the lengths it
// was read at, a copy of a store stays valid while the tracer records on: a
// record or arg is written once, before the length covers it, and a chunk
// never moves.
type store struct {
	n     int // records
	nargs int
	recs  []*recordChunk
	args  []*argChunk
	strs  []string // by id
}

func (l *store) record(i int) *record { return &l.recs[i>>chunkShift][i&chunkMask] }

// arg returns r's jth arg.
func (l *store) arg(r *record, j int) argRecord {
	if j == 0 {
		return argRecord{key: r.key, typ: r.typ, val: r.v}
	}
	i := int(r.more) + j - 1
	return l.args[i>>chunkShift][i&chunkMask]
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
	return t.n
}

// read returns a copy of the store as it stands: what it covers can be read
// without the lock.
func (t *Tracer) read() store {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store
}

// intern returns s's id, adding s to the table if it is new. Caller holds mu.
func (t *Tracer) intern(s string) uint32 {
	var h uint64
	if n := len(s); n > 0 {
		h = uint64(n) | uint64(s[0])<<8 | uint64(s[n/2])<<16 | uint64(s[n-1])<<24
	}
	slot := &t.cache[h*0x9e3779b97f4a7c15>>(64-internCacheBits)]
	if slot.id != 0 && slot.s == s {
		return slot.id - 1
	}
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]uint32)
		}
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = id
	}
	slot.s, slot.id = s, id+1
	return id
}

// newRecord stores r as the next record, with no args yet, and returns
// where it is stored. Caller holds mu.
func (t *Tracer) newRecord(r record) *record {
	if t.n == len(t.recs)<<chunkShift {
		t.recs = append(t.recs, new(recordChunk))
	}
	p := t.store.record(t.n)
	t.n++
	r.more, r.nargs = uint32(t.nargs), 0
	*p = r
	return p
}

// addArg appends a to r's args. Caller holds mu; r is the newest record.
func (t *Tracer) addArg(r *record, a argRecord) {
	r.nargs++
	if r.nargs == 1 {
		r.key, r.typ, r.v = a.key, a.typ, a.val
		return
	}
	if t.nargs == len(t.args)<<chunkShift {
		t.args = append(t.args, new(argChunk))
	}
	t.args[t.nargs>>chunkShift][t.nargs&chunkMask] = a
	t.nargs++
}

// addArgs appends args to r's args. Caller holds mu.
func (t *Tracer) addArgs(r *record, args []Arg) {
	for i := range args {
		a := &args[i]
		ar := argRecord{key: t.intern(a.Key), typ: a.typ, val: a.n}
		if a.typ == argString {
			ar.val = uint64(t.intern(a.Val))
		}
		t.addArg(r, ar)
	}
}

func (t *Tracer) add(at units.Time, ph byte, cat, name string, tid int64, args []Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addArgs(t.newRecord(record{at: at, ph: ph, cat: t.intern(cat), name: t.intern(name), tid: tid}), args)
	t.mu.Unlock()
}

// Begin opens a duration slice named name on track tid.
func (t *Tracer) Begin(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(at, PhaseBegin, cat, name, tid, args)
}

// End closes the innermost open slice with the same name on track tid.
func (t *Tracer) End(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(at, PhaseEnd, cat, name, tid, args)
}

// Instant records a point event.
func (t *Tracer) Instant(at units.Time, cat, name string, tid int64, args ...Arg) {
	t.add(at, PhaseInstant, cat, name, tid, args)
}

// Count records a sampled value; name identifies the counter track (embed
// the flow/port label in it — Chrome counters are keyed by name, not tid).
func (t *Tracer) Count(at units.Time, cat, name string, tid int64, val float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.newRecord(record{at: at, ph: PhaseCounter, cat: t.intern(cat), name: t.intern(name), tid: tid, v: math.Float64bits(val)})
	t.mu.Unlock()
}

// Append copies every event of other onto t in record order, merging the
// two logs onto one timeline (e.g. one trace file for several schemes).
func (t *Tracer) Append(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	src := other.read()
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]uint32, len(src.strs)) // other's string ids as t's
	for i, s := range src.strs {
		ids[i] = t.intern(s)
	}
	for i := 0; i < src.n; i++ {
		from := src.record(i)
		r := *from
		r.cat, r.name = ids[r.cat], ids[r.name]
		to := t.newRecord(r)
		for j := range int(from.nargs) {
			a := src.arg(from, j)
			a.key = ids[a.key]
			if a.typ == argString {
				a.val = uint64(ids[a.val])
			}
			t.addArg(to, a)
		}
	}
}

// Events returns a copy of the recorded events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	l := t.read()
	evs := make([]Event, l.n)
	nargs := 0
	for i := range l.n {
		nargs += int(l.record(i).nargs)
	}
	args := make([]Arg, nargs)
	for i := range evs {
		r := l.record(i)
		ev := &evs[i]
		*ev = Event{At: r.at, Ph: r.ph, Cat: l.strs[r.cat], Name: l.strs[r.name], TID: r.tid}
		if r.ph == PhaseCounter {
			ev.Val = math.Float64frombits(r.v)
		}
		if r.nargs == 0 {
			continue
		}
		ev.Args, args = args[:r.nargs:r.nargs], args[r.nargs:]
		for j := range ev.Args {
			a := l.arg(r, j)
			ev.Args[j] = Arg{Key: l.strs[a.key], Val: string(l.appendArgVal(nil, &a))}
		}
		if r.linked {
			ev.Trace, ev.Span = l.arg(r, 0).val, l.arg(r, 1).val
		}
	}
	return evs
}

// Counters returns the counter samples of category cat in record order, each
// as Events returns it. It renders no other record, so it reads one
// category's samples out of a long log at the cost of a pass over it.
func (t *Tracer) Counters(cat string) []Event {
	if t == nil {
		return nil
	}
	l := t.read()
	id := slices.Index(l.strs, cat)
	if id < 0 {
		return nil
	}
	var evs []Event
	for i := range l.n {
		if r := l.record(i); r.ph == PhaseCounter && r.cat == uint32(id) {
			evs = append(evs, Event{At: r.at, Ph: r.ph, Cat: cat, Name: l.strs[r.name], TID: r.tid,
				Val: math.Float64frombits(r.v)})
		}
	}
	return evs
}

// appendArgVal appends a's value as an Event's Arg.Val holds it.
func (l *store) appendArgVal(b []byte, a *argRecord) []byte {
	switch a.typ {
	case argInt:
		return strconv.AppendInt(b, int64(a.val), 10)
	case argID:
		return appendID(b, a.val)
	}
	return append(b, l.strs[a.val]...)
}

// WriteChromeTrace serializes the log in the Chrome trace-event JSON array
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Counter events become args:{"value": v}; instant events get scope "t"
// (thread) so they render as ticks on their flow track; span events carry
// their span hex as the async id, so begin/end pairs match across
// goroutines and processes. Output is buffered: an event is several fragments,
// and w is usually a file. Each interned string is JSON-encoded once.
func (t *Tracer) WriteChromeTrace(out io.Writer) error {
	var l store
	if t != nil {
		l = t.read()
	}
	quoted := make([][]byte, len(l.strs)) // the JSON of each interned string
	for id, str := range l.strs {
		q, err := json.Marshal(str)
		if err != nil {
			return err
		}
		quoted[id] = q
	}
	w := bufio.NewWriter(out)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	var b []byte
	for i := 0; i < l.n; i++ {
		r := l.record(i)
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(append(b, `{"name":`...), quoted[r.name]...)
		b = append(append(b, `,"cat":`...), quoted[r.cat]...)
		b = append(append(append(b, `,"ph":"`...), r.ph), `","ts":`...)
		b = strconv.AppendFloat(b, float64(r.at)/1e6, 'f', 6, 64) // fixed precision: deterministic
		b = strconv.AppendInt(append(b, `,"pid":1,"tid":`...), r.tid, 10)
		switch r.ph {
		case PhaseInstant:
			b = append(b, `,"s":"t"`...)
		case PhaseSpanBegin, PhaseSpanEnd:
			b = append(strconv.AppendUint(append(b, `,"id":"0x`...), l.arg(r, 1).val, 16), '"')
		}
		if r.ph == PhaseCounter {
			b = strconv.AppendFloat(append(b, `,"args":{"value":`...), math.Float64frombits(r.v), 'g', -1, 64)
			b = append(b, '}')
		} else if r.nargs > 0 {
			b = append(b, `,"args":{`...)
			for j := range int(r.nargs) {
				if j > 0 {
					b = append(b, ',')
				}
				a := l.arg(r, j)
				b = append(append(b, quoted[a.key]...), ':')
				if a.typ == argString {
					b = append(b, quoted[a.val]...)
				} else { // digits or hex: nothing to escape
					b = append(l.appendArgVal(append(b, '"'), &a), '"')
				}
			}
			b = append(b, '}')
		}
		b = append(b, '}')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n]\n"); err != nil {
		return err
	}
	return w.Flush()
}
