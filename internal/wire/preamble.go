package wire

// The dial preamble is the relay protocol's only variable-length,
// attacker-facing input: a DIAL header followed by Length bytes naming the
// target ("host:port"). The relay parses it from every accepted connection
// before any policy check runs, so the parser must be total — truncated,
// oversized, and garbage inputs all map to typed errors, never to a panic,
// an unbounded allocation, or a silent misread. The package's fuzz target
// holds the parser to that.

import (
	"errors"
	"fmt"
	"io"
)

// MaxTargetLen bounds the dial target. Anything longer than a
// host:port can reasonably be is a malformed or hostile preamble, and the
// bound caps the allocation an unauthenticated client can force.
const MaxTargetLen = 1024

// Preamble errors. ReadDial and ParseDial wrap these with detail;
// match with errors.Is.
var (
	// ErrPreambleTruncated reports a connection or buffer that ended
	// before the advertised preamble was complete.
	ErrPreambleTruncated = errors.New("wire: truncated dial preamble")
	// ErrNotDial reports a structurally valid frame of the wrong kind
	// where a DIAL was required.
	ErrNotDial = errors.New("wire: preamble is not a DIAL frame")
	// ErrTargetLen reports a DIAL whose target length is zero or exceeds
	// MaxTargetLen.
	ErrTargetLen = errors.New("wire: dial target length out of range")
	// ErrTargetGarbage reports a target containing control or non-ASCII
	// bytes — never legitimate in a host:port, always hostile or corrupt.
	ErrTargetGarbage = errors.New("wire: dial target contains garbage bytes")
)

// Dial is a decoded dial preamble: the target plus the trace context the
// client attached. TraceID and SpanID ride the header's FlowID and Seq
// fields — both were fixed at zero in DIAL frames, so carrying them is a
// wire-compatible extension: old parsers ignore the fields, old dialers
// produce TraceID=0 ("untraced"), and the existing checksum already
// covers them.
type Dial struct {
	Target  string
	TraceID uint64
	SpanID  uint64
}

// AppendDial marshals a dial preamble onto buf. The target is validated
// with the same rules the parser enforces, so a preamble this function
// produces always parses.
func AppendDial(buf []byte, d Dial) ([]byte, error) {
	if len(d.Target) == 0 || len(d.Target) > MaxTargetLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTargetLen, len(d.Target))
	}
	if err := checkTarget([]byte(d.Target)); err != nil {
		return nil, err
	}
	buf = AppendHeader(buf, Header{
		Kind:   KindDial,
		FlowID: d.TraceID,
		Seq:    d.SpanID,
		Length: uint32(len(d.Target)),
	})
	return append(buf, d.Target...), nil
}

// ParseDial decodes a dial preamble from the front of b, returning the
// dial and the number of bytes consumed. It never panics and never
// allocates more than MaxTargetLen regardless of input.
func ParseDial(b []byte) (d Dial, n int, err error) {
	if len(b) < HeaderSize {
		return Dial{}, 0, fmt.Errorf("%w: %d of %d header bytes", ErrPreambleTruncated, len(b), HeaderSize)
	}
	h, err := dialHeader(b)
	if err != nil {
		return Dial{}, 0, err
	}
	end := HeaderSize + int(h.Length)
	if len(b) < end {
		return Dial{}, 0, fmt.Errorf("%w: %d of %d target bytes", ErrPreambleTruncated, len(b)-HeaderSize, h.Length)
	}
	t := b[HeaderSize:end]
	if err := checkTarget(t); err != nil {
		return Dial{}, 0, err
	}
	return Dial{Target: string(t), TraceID: h.FlowID, SpanID: h.Seq}, end, nil
}

// dialHeader parses the header at the front of b (at least HeaderSize bytes)
// and checks that it opens a dial preamble: a DIAL frame whose target length
// is in 1..MaxTargetLen.
func dialHeader(b []byte) (Header, error) {
	h, err := Parse(b)
	if err != nil {
		return Header{}, err
	}
	if h.Kind != KindDial {
		return Header{}, fmt.Errorf("%w: got %v", ErrNotDial, h.Kind)
	}
	if h.Length == 0 || h.Length > MaxTargetLen {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrTargetLen, h.Length)
	}
	return h, nil
}

// dialHeadroom is the longest target ReadDial reads into the buffer that
// holds the header: with the header it fills one 128-byte allocation, room
// for any IP literal host:port. A longer target gets a buffer of its own.
const dialHeadroom = 128 - HeaderSize

// ReadDial consumes a dial preamble from r — the relay's accept path.
// A stream that ends early reports ErrPreambleTruncated; structural and
// content failures report the same typed errors as ParseDial. It reads
// exactly the preamble, never past it, and allocates no more than
// MaxTargetLen for the target.
func ReadDial(r io.Reader) (Dial, error) {
	buf := make([]byte, HeaderSize+dialHeadroom)
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Dial{}, fmt.Errorf("%w: header: %v", ErrPreambleTruncated, err)
		}
		return Dial{}, err
	}
	h, err := dialHeader(hdr)
	if err != nil {
		return Dial{}, err
	}
	var target []byte
	if h.Length <= dialHeadroom {
		target = buf[HeaderSize : HeaderSize+h.Length]
	} else {
		target = make([]byte, h.Length)
	}
	if _, err := io.ReadFull(r, target); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Dial{}, fmt.Errorf("%w: target: %v", ErrPreambleTruncated, err)
		}
		return Dial{}, err
	}
	if err := checkTarget(target); err != nil {
		return Dial{}, err
	}
	return Dial{Target: string(target), TraceID: h.FlowID, SpanID: h.Seq}, nil
}

// checkTarget rejects bytes that cannot occur in a host:port — control
// characters, spaces, DEL, and anything non-ASCII.
func checkTarget(t []byte) error {
	for i, c := range t {
		if c <= 0x20 || c >= 0x7f {
			return fmt.Errorf("%w: byte %#02x at offset %d", ErrTargetGarbage, c, i)
		}
	}
	return nil
}
