package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func mustPreamble(t testing.TB, target string) []byte {
	t.Helper()
	b, err := AppendDial(nil, Dial{Target: target})
	if err != nil {
		t.Fatalf("AppendDial(%q): %v", target, err)
	}
	return b
}

func TestPreambleRoundTrip(t *testing.T) {
	b := mustPreamble(t, "10.0.0.7:9000")
	b = append(b, "trailing stream bytes"...) // payload after the preamble

	d, n, err := ParseDial(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != "10.0.0.7:9000" {
		t.Fatalf("target = %q", d.Target)
	}
	if n != HeaderSize+len("10.0.0.7:9000") {
		t.Fatalf("consumed %d bytes", n)
	}

	got, err := ReadDial(bytes.NewReader(b))
	if err != nil || got.Target != "10.0.0.7:9000" {
		t.Fatalf("ReadDial = %q, %v", got.Target, err)
	}
}

func TestPreambleTruncated(t *testing.T) {
	full := mustPreamble(t, "host.example:443")
	for _, cut := range []int{0, 1, HeaderSize - 1, HeaderSize, HeaderSize + 3, len(full) - 1} {
		if _, _, err := ParseDial(full[:cut]); !errors.Is(err, ErrPreambleTruncated) &&
			!errors.Is(err, ErrShortHeader) {
			t.Fatalf("cut=%d: err = %v", cut, err)
		}
		if _, err := ReadDial(bytes.NewReader(full[:cut])); !errors.Is(err, ErrPreambleTruncated) &&
			!errors.Is(err, ErrShortHeader) {
			t.Fatalf("read cut=%d: err = %v", cut, err)
		}
	}
}

func TestPreambleOversizedAndEmpty(t *testing.T) {
	if _, err := AppendDial(nil, Dial{Target: strings.Repeat("a", MaxTargetLen+1)}); !errors.Is(err, ErrTargetLen) {
		t.Fatalf("oversized append: %v", err)
	}
	if _, err := AppendDial(nil, Dial{}); !errors.Is(err, ErrTargetLen) {
		t.Fatalf("empty append: %v", err)
	}
	// Hand-craft headers the encoder refuses to produce.
	for _, length := range []uint32{0, MaxTargetLen + 1, 1 << 30} {
		hdr := Marshal(Header{Kind: KindDial, Length: length})
		b := append(hdr, make([]byte, 16)...)
		if _, _, err := ParseDial(b); !errors.Is(err, ErrTargetLen) {
			t.Fatalf("length %d: %v", length, err)
		}
		if _, err := ReadDial(bytes.NewReader(b)); !errors.Is(err, ErrTargetLen) {
			t.Fatalf("read length %d: %v", length, err)
		}
	}
}

func TestPreambleWrongKindAndGarbage(t *testing.T) {
	notDial := Marshal(Header{Kind: KindData, Length: 4})
	notDial = append(notDial, "abcd"...)
	if _, _, err := ParseDial(notDial); !errors.Is(err, ErrNotDial) {
		t.Fatalf("wrong kind: %v", err)
	}

	for _, target := range []string{"has space:80", "nul\x00byte:80", "high\xffbyte:80", "tab\tchar:80"} {
		if _, err := AppendDial(nil, Dial{Target: target}); !errors.Is(err, ErrTargetGarbage) {
			t.Fatalf("append %q: %v", target, err)
		}
		hdr := Marshal(Header{Kind: KindDial, Length: uint32(len(target))})
		b := append(hdr, target...)
		if _, _, err := ParseDial(b); !errors.Is(err, ErrTargetGarbage) {
			t.Fatalf("parse %q: %v", target, err)
		}
		if _, err := ReadDial(bytes.NewReader(b)); !errors.Is(err, ErrTargetGarbage) {
			t.Fatalf("read %q: %v", target, err)
		}
	}
}

func TestPreambleCorruptHeader(t *testing.T) {
	b := mustPreamble(t, "h:1")
	b[5] ^= 0xff // flip FlowID bits: checksum must catch it
	if _, _, err := ParseDial(b); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt: %v", err)
	}
}

// ReadDial must pass through non-EOF transport errors unmapped, so the
// relay can distinguish a peer that hung up from a broken socket.
func TestReadDialPropagatesReaderError(t *testing.T) {
	boom := errors.New("socket exploded")
	if _, err := ReadDial(errReader{boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// A short target shares ReadDial's header buffer; a longer one gets its own.
// Both must read the same bytes, and the short one costs one allocation less.
func TestReadDialAllocs(t *testing.T) {
	for _, tc := range []struct {
		targetLen int
		allocs    float64
	}{
		{len("10.0.0.7:9000"), 2}, // header buffer, Target string
		{dialHeadroom, 2},
		{dialHeadroom + 1, 3}, // plus the target's own buffer
		{MaxTargetLen, 3},
	} {
		b := mustPreamble(t, strings.Repeat("h", tc.targetLen-2)+":1")
		r := bytes.NewReader(b)
		got := testing.AllocsPerRun(100, func() {
			r.Reset(b)
			if d, err := ReadDial(r); err != nil || len(d.Target) != tc.targetLen {
				t.Fatalf("%d-byte target: %q, %v", tc.targetLen, d.Target, err)
			}
		})
		if got != tc.allocs {
			t.Errorf("%d-byte target: %.0f allocations, want %.0f", tc.targetLen, got, tc.allocs)
		}
	}
}

// preambleSentinels are the errors both preamble parsers classify by.
var preambleSentinels = []error{
	ErrPreambleTruncated, ErrNotDial, ErrTargetLen, ErrTargetGarbage,
	ErrBadChecksum, ErrBadVersion, ErrBadKind, ErrBadReserved,
}

func FuzzParseDial(f *testing.F) {
	f.Add(mustPreamble(f, "10.0.0.7:9000"))
	f.Add(mustPreamble(f, "a:1"))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add(Marshal(Header{Kind: KindDial, Length: 1 << 31}))
	f.Add(Marshal(Header{Kind: KindError, Length: 3}))
	// Both sides of ReadDial's headroom, and the longest legal target:
	// whole, one byte short, and with stream bytes after it.
	for _, n := range []int{dialHeadroom, dialHeadroom + 1, MaxTargetLen} {
		p := mustPreamble(f, strings.Repeat("h", n-2)+":1")
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(append(p, "stream"...))
	}
	f.Add(append(Marshal(Header{Kind: KindDial, Length: dialHeadroom + 1}), strings.Repeat("h\x00", dialHeadroom)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, n, err := ParseDial(data)
		// The streaming parser must agree on every input, whether it gets
		// the bytes at once or one at a time: the same Dial, or the same
		// sentinel.
		for _, r := range []struct {
			name string
			r    io.Reader
		}{
			{"whole", bytes.NewReader(data)},
			{"one byte", iotest.OneByteReader(bytes.NewReader(data))},
		} {
			streamed, serr := ReadDial(r.r)
			if (serr == nil) != (err == nil) || streamed != d {
				t.Fatalf("%s: ReadDial = %+v, %v; ParseDial = %+v, %v", r.name, streamed, serr, d, err)
			}
			for _, s := range preambleSentinels {
				if errors.Is(serr, s) != errors.Is(err, s) {
					t.Fatalf("%s: ReadDial error %v, ParseDial error %v: disagree on %v", r.name, serr, err, s)
				}
			}
		}
		if err != nil {
			if d != (Dial{}) || n != 0 {
				t.Fatalf("error path leaked results: %+v, %d", d, n)
			}
			return
		}
		target := d.Target
		// A successful parse must be internally consistent...
		if len(target) == 0 || len(target) > MaxTargetLen {
			t.Fatalf("target length %d out of bounds", len(target))
		}
		if n != HeaderSize+len(target) || n > len(data) {
			t.Fatalf("consumed %d of %d for %d-byte target", n, len(data), len(target))
		}
		// ...and survive a re-encode round trip.
		re, err := AppendDial(nil, d)
		if err != nil {
			t.Fatalf("re-encode refused parsed target %q: %v", target, err)
		}
		back, m, err := ParseDial(re)
		if err != nil || back != d || m != len(re) {
			t.Fatalf("round trip: %+v, %d, %v", back, m, err)
		}
	})
}

var _ io.Reader = errReader{}
