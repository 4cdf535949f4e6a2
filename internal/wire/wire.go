// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package wire defines the proxy protocol's binary header: the bytes the
// streamlined proxy's packet program parses on the critical path, and the
// framing the TCP relay uses for its dial preamble. The layout is fixed
// size and fixed endian (big), exactly the kind of structure an eBPF
// program can parse with direct loads.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the current protocol version.
const Version = 1

// HeaderSize is the fixed on-wire header length in bytes.
const HeaderSize = 28

// Kind discriminates frame types.
type Kind uint8

// Frame kinds.
const (
	// KindData carries flow payload.
	KindData Kind = 1
	// KindAck acknowledges one data frame.
	KindAck Kind = 2
	// KindNack requests retransmission of one data frame.
	KindNack Kind = 3
	// KindDial opens a relayed connection; the payload is the target
	// address ("host:port").
	KindDial Kind = 4
	// KindDialOK confirms the relay connected to the target.
	KindDialOK Kind = 5
	// KindError carries a relay-side failure message in the payload.
	KindError Kind = 6
	// KindBusy is the relay's fast admission-shed answer: the relay is at
	// capacity (max concurrent connections or accept-rate budget) and this
	// dial was refused *before* any target dial. Unlike KindError it
	// carries a machine-readable verdict (relay.ErrRelayBusy on the dialing
	// side) the client can act on without parsing a message; the payload
	// is empty.
	KindBusy Kind = 7
	// KindGoingAway is the relay's drain-shed answer: the relay is
	// gracefully shutting down, finishing established splices but refusing
	// new dials (relay.ErrRelayDraining on the dialing side). Clients
	// should re-route (direct path or another relay) rather than retry
	// this relay. The payload is empty.
	KindGoingAway Kind = 8
)

// MaxErrorLen bounds a KindError payload: the relay truncates its message to
// it and the dialing client reads no more, whatever Length the frame claims.
const MaxErrorLen = 1024

func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindNack:
		return "NACK"
	case KindDial:
		return "DIAL"
	case KindDialOK:
		return "DIAL_OK"
	case KindError:
		return "ERROR"
	case KindBusy:
		return "BUSY"
	case KindGoingAway:
		return "GOING_AWAY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Header flags.
const (
	// FlagTrimmed marks a data frame whose payload was cut to zero by a
	// trimming switch; only the header survives.
	FlagTrimmed = 1 << 0
	// FlagECN is the congestion-experienced mark.
	FlagECN = 1 << 1
	// FlagRetx marks retransmitted data.
	FlagRetx = 1 << 2
)

// Header is the decoded frame header.
//
// Wire layout (big endian):
//
//	off 0  : Version  (1 byte)
//	off 1  : Kind     (1 byte)
//	off 2  : Flags    (1 byte)
//	off 3  : reserved (1 byte, must be 0)
//	off 4  : FlowID   (8 bytes)
//	off 12 : Seq      (8 bytes)
//	off 20 : Length   (4 bytes, payload bytes that follow)
//	off 24 : Checksum (4 bytes, over the first 24 bytes with this
//	         field zeroed)
type Header struct {
	Kind   Kind
	Flags  uint8
	FlowID uint64
	Seq    uint64
	Length uint32
}

// Trimmed reports FlagTrimmed.
func (h Header) Trimmed() bool { return h.Flags&FlagTrimmed != 0 }

// ECN reports FlagECN.
func (h Header) ECN() bool { return h.Flags&FlagECN != 0 }

// Retx reports FlagRetx.
func (h Header) Retx() bool { return h.Flags&FlagRetx != 0 }

func (h Header) String() string {
	return fmt.Sprintf("%v flow=%d seq=%d len=%d flags=%#x", h.Kind, h.FlowID, h.Seq, h.Length, h.Flags)
}

// Decoding errors.
var (
	ErrShortHeader = errors.New("wire: buffer shorter than header")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadKind     = errors.New("wire: unknown kind")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrBadReserved = errors.New("wire: reserved byte not zero")
)

// AppendHeader marshals h onto buf and returns the extended slice.
func AppendHeader(buf []byte, h Header) []byte {
	var scratch [HeaderSize]byte
	b := scratch[:]
	b[0] = Version
	b[1] = byte(h.Kind)
	b[2] = h.Flags
	b[3] = 0
	binary.BigEndian.PutUint64(b[4:], h.FlowID)
	binary.BigEndian.PutUint64(b[12:], h.Seq)
	binary.BigEndian.PutUint32(b[20:], h.Length)
	binary.BigEndian.PutUint32(b[24:], checksum(b[:24]))
	return append(buf, b...)
}

// Marshal returns the header as a fresh HeaderSize-byte slice.
func Marshal(h Header) []byte { return AppendHeader(nil, h) }

// Parse decodes and verifies a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrShortHeader
	}
	if b[0] != Version {
		return Header{}, ErrBadVersion
	}
	if b[3] != 0 {
		return Header{}, ErrBadReserved
	}
	k := Kind(b[1])
	if k < KindData || k > KindGoingAway {
		return Header{}, ErrBadKind
	}
	want := binary.BigEndian.Uint32(b[24:28])
	if checksum(b[:24]) != want {
		return Header{}, ErrBadChecksum
	}
	return Header{
		Kind:   k,
		Flags:  b[2],
		FlowID: binary.BigEndian.Uint64(b[4:12]),
		Seq:    binary.BigEndian.Uint64(b[12:20]),
		Length: binary.BigEndian.Uint32(b[20:24]),
	}, nil
}

// checksum is a simple 32-bit ones'-complement-style sum, cheap enough for
// a per-packet program hot path.
func checksum(b []byte) uint32 {
	var sum uint64
	for len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	var last [4]byte
	if len(b) > 0 {
		copy(last[:], b)
		sum += uint64(binary.BigEndian.Uint32(last[:]))
	}
	for sum>>32 != 0 {
		sum = sum&0xffffffff + sum>>32
	}
	return uint32(^sum)
}
