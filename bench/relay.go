package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"incastproxy/internal/relay"
	"incastproxy/internal/rng"
)

const (
	relayPlain = iota // the gated op
	relaySpans        // the same op, its stages recorded as spans
	relayVariants

	streamBytes = 4 << 20  // per-flow size of a Fig 2 degree-8 cell
	writeBytes  = 64 << 10 // one client write
	relayWarmup = 256
	replyBytes  = 12 // the sink's answer: byte count, then CRC-32 of the content
)

// sink is the in-process receiver: it drains each connection to EOF and
// answers with the byte count it saw. While verify is set (warm-up ops) it
// also checksums the content, so a relay that reordered or corrupted bytes
// is caught; timed ops skip the checksum so that no benchmark-side work sits
// on the measured path.
type sink struct {
	l      net.Listener
	verify atomic.Bool
	wg     sync.WaitGroup
}

func startSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{l: l}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

func (s *sink) serve() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.drain(c)
	}
}

func (s *sink) drain(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	buf := make([]byte, writeBytes)
	verify := s.verify.Load()
	var n uint64
	var sum uint32
	for {
		rn, err := c.Read(buf)
		n += uint64(rn)
		if verify {
			sum = crc32.Update(sum, crc32.IEEETable, buf[:rn])
		}
		if err != nil {
			break // EOF is the client's half-close; anything else shows as a short count
		}
	}
	var reply [replyBytes]byte
	binary.BigEndian.PutUint64(reply[:8], n)
	binary.BigEndian.PutUint32(reply[8:], sum)
	_, _ = c.Write(reply[:]) // a lost reply fails the op at the client
}

// close stops accepting and waits for every connection goroutine.
func (s *sink) close() {
	s.l.Close()
	s.wg.Wait()
}

// relayStages are the client-side stage times of one op: dial is the relay
// handshake, write the 64 writes, drain the half-close until the sink's reply
// is back, closing the final Close.
type relayStages struct{ dial, write, drain, closing time.Duration }

// maxRelayOps sizes the stage log up front, so that logging an op allocates
// nothing inside the timed window. A run would need 60 s of 1 ms ops to
// exceed it.
const maxRelayOps = 1 << 16

// relayWorkload streams streamBytes one way through a default relay.Server
// to the sink over loopback TCP (no real link), one op in flight.
type relayWorkload struct {
	payload []byte
	sum     uint32 // CRC-32 of one full stream

	srv      *relay.Server
	srvDone  chan error
	sink     *sink
	addr     string
	target   string
	stages   []relayStages // plain ops of the timed window, for the layer metrics
	accepted uint64        // Server.Metrics at the start of the timed window
}

func newRelayWorkload(seed int64) *relayWorkload {
	w := &relayWorkload{payload: make([]byte, writeBytes),
		stages: make([]relayStages, 0, maxRelayOps)}
	src := rng.New(rng.DeriveSeed(seed, 1))
	for i := 0; i+8 <= len(w.payload); i += 8 {
		binary.LittleEndian.PutUint64(w.payload[i:], uint64(src.Int63()))
	}
	for i := 0; i < streamBytes/writeBytes; i++ {
		w.sum = crc32.Update(w.sum, crc32.IEEETable, w.payload)
	}
	return w
}

func (w *relayWorkload) variants() int { return relayVariants }

// blockOps is 32: a 4 ms op is too short to calibrate singly, so the kernel
// runs between blocks of 32.
func (w *relayWorkload) blockOps() int { return 32 }

func (w *relayWorkload) setup() error {
	var err error
	if w.sink, err = startSink(); err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = relay.New(relay.Config{})
	w.srvDone = make(chan error, 1)
	go func() { w.srvDone <- w.srv.Serve(l) }()
	w.addr, w.target = l.Addr().String(), w.sink.l.Addr().String()

	w.sink.verify.Store(true)
	for i := 0; i < relayWarmup; i++ {
		if err := w.op(relayPlain, -1, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	w.sink.verify.Store(false)
	w.stages = w.stages[:0]
	w.accepted = w.srv.Metrics.AcceptedConns.Load()
	return nil
}

// teardown drains the relay, joins Serve and the sink, and checks the
// server's own counters against what the client sent.
func (w *relayWorkload) teardown() error {
	err := w.srv.Drain(10 * time.Second)
	if serr := <-w.srvDone; err == nil && serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = serr
	}
	w.sink.close()
	if err != nil {
		return err
	}
	m := &w.srv.Metrics
	if shed := m.ShedBusy.Load() + m.ShedGoingAway.Load(); shed != 0 {
		return fmt.Errorf("relay shed %d dials, want 0", shed)
	}
	if conns, up := m.AcceptedConns.Load(), m.BytesUpstream.Load(); up != conns*streamBytes {
		return fmt.Errorf("relay moved %d bytes upstream over %d conns, want %d each", up, conns, streamBytes)
	}
	return nil
}

// op dials through the relay, streams the payload, half-closes, reads the
// sink's reply back through the relay and closes.
func (w *relayWorkload) op(variant, id int, rec *recorder) error {
	start := time.Now()
	c, err := relay.DialViaRelay(context.Background(), nil, w.addr, w.target)
	if err != nil {
		return err // includes ErrRelayBusy: a shed op is a failed op
	}
	defer c.Close()
	dialed := time.Now()
	for sent := 0; sent < streamBytes; sent += writeBytes {
		if _, err := c.Write(w.payload); err != nil {
			return err
		}
	}
	written := time.Now()
	hc, ok := c.(interface{ CloseWrite() error })
	if !ok {
		return fmt.Errorf("relayed conn %T cannot half-close", c)
	}
	if err := hc.CloseWrite(); err != nil {
		return err
	}
	var reply [replyBytes]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		return fmt.Errorf("reading the sink's reply: %w", err)
	}
	drained := time.Now()
	if err := c.Close(); err != nil {
		return err
	}
	closed := time.Now()

	if n := binary.BigEndian.Uint64(reply[:8]); n != streamBytes {
		return fmt.Errorf("sink counted %d bytes, want %d", n, streamBytes)
	}
	if w.sink.verify.Load() {
		if sum := binary.BigEndian.Uint32(reply[8:]); sum != w.sum {
			return fmt.Errorf("sink content checksum %#x, want %#x", sum, w.sum)
		}
	}
	switch variant {
	case relayPlain:
		if id >= 0 {
			w.stages = append(w.stages, relayStages{dialed.Sub(start), written.Sub(dialed),
				drained.Sub(written), closed.Sub(drained)})
		}
	case relaySpans:
		root := rec.add("relay_stream.op", id, -1, start, closed)
		rec.add("relay.DialViaRelay", id, root, start, dialed)
		rec.add("client.write", id, root, dialed, written)
		rec.add("client.drain", id, root, written, drained)
		rec.add("client.close", id, root, drained, closed)
	}
	return nil
}

// layerMetrics reports the stage timings of the traced run's plain ops and
// the relay's own counters.
func (w *relayWorkload) layerMetrics(m map[string]float64, tr *window, spans []span) {
	n := len(w.stages)
	dial, drain, closing, wall, rate := make([]float64, n), make([]float64, n),
		make([]float64, n), make([]float64, n), make([]float64, n)
	for i, st := range w.stages {
		dial[i] = st.dial.Seconds() * 1e3
		drain[i] = st.drain.Seconds() * 1e3
		closing[i] = st.closing.Seconds() * 1e3
		wall[i] = (st.dial + st.write + st.drain + st.closing).Seconds() * 1e3
		rate[i] = streamBytes / 1e6 / (st.write + st.drain).Seconds()
	}
	tail := tailPercentile(n) / 100
	m["relay.dial_ms_p50"] = median(dial)
	m["relay.dial_ms_tail"] = quantile(dial, tail)
	m["relay.dial_share"] = median(dial) / median(wall)
	m["relay.stream_mb_per_s"] = median(rate)
	m["relay.drain_ms_p50"] = median(drain)
	m["relay.close_ms_p50"] = median(closing)
	m["relay.op_wall_ms_tail"] = quantile(wall, tail)
	m["relay.allocs_per_conn"] = median(tr.allocs[relayPlain])

	sm := &w.srv.Metrics
	accepted := sm.AcceptedConns.Load() - w.accepted
	m["relay.accepted"] = float64(accepted)
	m["relay.shed"] = float64(sm.ShedBusy.Load() + sm.ShedGoingAway.Load())
	// Every op so far, warm-up included, moved the same bytes, so the
	// lifetime ratio is the per-connection figure.
	m["relay.bytes_up_per_conn"] = float64(sm.BytesUpstream.Load()) / float64(sm.AcceptedConns.Load())
	m["trace.overhead_pct"] = tr.overheadPct(relaySpans)
}
