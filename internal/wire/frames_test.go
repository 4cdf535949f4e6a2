package wire

// The BUSY and GOING_AWAY frames are the relay's overload vocabulary: an
// admission shed and a drain shed must reach the client as explicit,
// parseable verdicts, never as a silent close or a hang. These tests (and
// FuzzHeaderRoundTrip) hold the codec to the same totality bar as the dial
// preamble: every byte pattern either parses to a header that re-encodes
// byte-identically, or maps to a typed error.

import (
	"bytes"
	"testing"
)

func TestBusyAndGoingAwayFrames(t *testing.T) {
	for _, k := range []Kind{KindBusy, KindGoingAway} {
		b := Marshal(Header{Kind: k})
		h, err := Parse(b)
		if err != nil {
			t.Fatalf("%v frame failed to parse: %v", k, err)
		}
		if h.Kind != k || h.Length != 0 {
			t.Fatalf("%v frame decoded as %+v", k, h)
		}
		// A shed verdict followed by stream teardown bytes must still
		// parse from a prefix read, the way DialViaRelay consumes it.
		trail := append(append([]byte(nil), b...), "ignored trailing bytes"...)
		if h2, err := Parse(trail); err != nil || h2.Kind != k {
			t.Fatalf("%v with trailer: %+v, %v", k, h2, err)
		}
	}
}

func TestShedKindsAreNotDialPreambles(t *testing.T) {
	// A client that echoes a shed frame back at a relay must hit the
	// preamble parser's wrong-kind error, not be mistaken for a dial.
	for _, k := range []Kind{KindBusy, KindGoingAway} {
		b := Marshal(Header{Kind: k, Length: 4})
		b = append(b, "addr"...)
		if _, _, err := ParseDial(b); err == nil {
			t.Fatalf("%v parsed as a dial preamble", k)
		}
	}
}

// FuzzHeaderRoundTrip fuzzes the frame codec over raw header fields,
// covering the BUSY/GOING_AWAY shed frames alongside the original kinds:
// every header the encoder can produce must parse back field-identical, and
// every out-of-range kind must be rejected with ErrBadKind.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint8(KindBusy), uint8(0), uint64(0), uint64(0), uint32(0))
	f.Add(uint8(KindGoingAway), uint8(0), uint64(0), uint64(0), uint32(0))
	f.Add(uint8(KindError), uint8(0), uint64(1), uint64(2), uint32(16))
	f.Add(uint8(KindData), uint8(FlagECN|FlagTrimmed), uint64(42), uint64(7), uint32(1472))
	f.Add(uint8(0), uint8(0xff), uint64(1<<63), uint64(1), uint32(1<<31))
	f.Add(uint8(255), uint8(1), uint64(3), uint64(4), uint32(5))

	f.Fuzz(func(t *testing.T, kind, flags uint8, flow, seq uint64, length uint32) {
		h := Header{Kind: Kind(kind), Flags: flags, FlowID: flow, Seq: seq, Length: length}
		b := Marshal(h)
		if len(b) != HeaderSize {
			t.Fatalf("marshal produced %d bytes", len(b))
		}
		got, err := Parse(b)
		valid := Kind(kind) >= KindData && Kind(kind) <= KindGoingAway
		if !valid {
			if err != ErrBadKind {
				t.Fatalf("kind %d: err = %v, want ErrBadKind", kind, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid header %+v failed to parse: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
		// Re-encoding the parsed header must be byte-identical.
		if !bytes.Equal(Marshal(got), b) {
			t.Fatalf("re-encode of %+v differs from original bytes", got)
		}
	})
}
