package obs

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
	"testing"

	"incastproxy/internal/units"
)

func sampleTracer() *Tracer {
	tr := NewTracer()
	tr.Begin(0, "flow", "flow 1", 1, Arg{Key: "bytes", Val: "1000"})
	tr.Instant(units.Time(1500), "flow", "nack", 1, Arg{Key: "seq", Val: "3"})
	tr.Count(units.Time(2*units.Microsecond), "queue", "queue recv-tor", 0, 4096)
	tr.Instant(units.Time(3*units.Microsecond), "log", "fault proxy-crash", 0)
	tr.End(units.Time(4*units.Microsecond), "flow", "flow 1", 1, Arg{Key: "outcome", Val: "completed"})
	return tr
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Begin(0, "a", "b", 1)
	tr.End(0, "a", "b", 1)
	tr.Instant(0, "a", "b", 1)
	tr.Count(0, "a", "b", 1, 2)
	tr.Append(NewTracer())
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must stay empty")
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
}

// The Chrome export must be a JSON array Perfetto accepts: every event with
// name/cat/ph/ts/pid/tid, counters carrying args.value, instants scoped "t".
func TestChromeTraceValidJSON(t *testing.T) {
	var b bytes.Buffer
	if err := sampleTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for _, ev := range evs {
		for _, k := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
	}
	if evs[0]["ph"] != "B" || evs[4]["ph"] != "E" {
		t.Fatalf("phases = %v / %v", evs[0]["ph"], evs[4]["ph"])
	}
	if evs[1]["s"] != "t" {
		t.Fatalf("instant missing thread scope: %v", evs[1])
	}
	args, ok := evs[2]["args"].(map[string]any)
	if !ok || args["value"] != 4096.0 {
		t.Fatalf("counter args = %v", evs[2]["args"])
	}
	// ts is microseconds: the 1500 ps instant is 0.0015 us.
	if evs[1]["ts"] != 0.0015 {
		t.Fatalf("ts = %v, want 0.0015", evs[1]["ts"])
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical tracers produced different exports")
	}
}

func TestTracerCSV(t *testing.T) {
	var b bytes.Buffer
	if err := sampleTracer().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "time_us,phase,cat,name,tid,value,args" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[2], "seq=3") {
		t.Fatalf("instant row lost its args: %q", lines[2])
	}
	if !strings.Contains(lines[3], ",4096,") {
		t.Fatalf("counter row lost its value: %q", lines[3])
	}
}

func TestTracerAppend(t *testing.T) {
	a := NewTracer()
	a.Instant(1, "x", "one", 1)
	b := NewTracer()
	b.Instant(2, "x", "two", 2)
	a.Append(b)
	a.Append(nil) // no-op
	if a.Len() != 2 {
		t.Fatalf("len = %d, want 2", a.Len())
	}
	if a.Events()[1].Name != "two" {
		t.Fatalf("appended event = %+v", a.Events()[1])
	}
}

func TestCSVEscape(t *testing.T) {
	cases := map[string]string{
		"plain":    "plain",
		"a,b":      `"a,b"`,
		`say "hi"`: `"say \"hi\""`,
	}
	for in, want := range cases {
		if got := csvEscape(in); got != want {
			t.Fatalf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

// countingWriter counts the Write calls it receives: each one is a write(2)
// when the writer is a file.
type countingWriter struct {
	out    bytes.Buffer // not embedded: its WriteString would bypass the count
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

// Both exports buffer what they write: a 10,000-event log reaches the writer in
// 4 KiB pieces, not in one piece per fragment of an event (several per event,
// which made the export most of a traced incastsim run), and the bytes are those
// the unbuffered export produced (length and CRC-32 recorded from it).
func TestTraceExportsBufferTheirWrites(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 2500; i++ {
		at, flow := units.Time(i)*units.Time(units.Microsecond), int64(i%7)
		tr.Begin(at, "flow", "flow "+strconv.Itoa(i), flow, Arg{Key: "bytes", Val: strconv.Itoa(1000 * i)})
		tr.Instant(at+1500, "queue", "trim", flow, Arg{Key: "port", Val: "tor-1->host-2"}, Arg{Key: "why", Val: `full, "deep"`})
		tr.Count(at+2000, "queue", "queue recv-tor", 0, float64(i)*1.5)
		tr.End(at+3000, "flow", "flow "+strconv.Itoa(i), flow)
	}
	for _, tc := range []struct {
		name   string
		export func(io.Writer) error
		size   int
		crc    uint32
	}{
		{"chrome", tr.WriteChromeTrace, 1061489, 0xbea0b198},
		{"csv", tr.WriteCSV, 469024, 0xf4361332},
	} {
		var w countingWriter
		if err := tc.export(&w); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		size := w.out.Len()
		if got := crc32.ChecksumIEEE(w.out.Bytes()); size != tc.size || got != tc.crc {
			t.Errorf("%s: wrote %d bytes with CRC %#08x, the unbuffered export wrote %d with %#08x", tc.name, size, got, tc.size, tc.crc)
		}
		if limit := size/4096 + 1; w.writes > limit {
			t.Errorf("%s: %d writes for %d bytes, want at most %d", tc.name, w.writes, size, limit)
		}
	}
}
