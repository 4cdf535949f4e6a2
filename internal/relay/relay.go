// Package relay implements the naive proxy design (§3, §5) over real
// net.Conn transports: a connection-splitting relay deployed in the sending
// datacenter. Each client connection carries a wire-format dial preamble
// naming the remote target; the relay opens its own connection to the
// target and splices bytes in both directions.
//
// Splitting the connection is what shortens the feedback loop: the
// client's transport control loop (kernel TCP in a real deployment, the
// lan emulation in tests) terminates at the relay, microseconds away,
// instead of at the remote receiver, milliseconds away.
//
// The relay is only a win while it is not itself the bottleneck, so the
// server defends itself under exactly the incast bursts it is deployed to
// absorb: admission control (max concurrent connections plus a token-bucket
// accept rate) sheds excess dials with a fast BUSY wire frame before any
// work is done for them; per-splice idle and lifetime deadlines reclaim
// goroutines pinned by stalled peers; and Drain performs a graceful
// shutdown — established splices finish, new dials get GOING_AWAY — with a
// hard deadline. Shedding new dials always comes before disturbing
// established splices: a brownout, not a blackout.
package relay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"incastproxy/internal/obs"
	"incastproxy/internal/units"
	"incastproxy/internal/wire"
)

// Metrics exposes the relay's runtime instruments, registered in the
// server's registry under relay_* names (atomically updated, safe to read
// concurrently).
type Metrics struct {
	AcceptedConns *obs.Counter
	ActiveConns   *obs.Gauge
	DialErrors    *obs.Counter
	BytesUpstream *obs.Counter // client -> target
	BytesDownstr  *obs.Counter // target -> client

	// Overload-protection counters (see Config.MaxConns/AcceptRate and
	// Server.Drain).
	ShedBusy      *obs.Counter // dials refused with BUSY (admission)
	ShedGoingAway *obs.Counter // dials refused with GOING_AWAY (drain)
	AcceptRetries *obs.Counter // temporary accept errors retried
	IdleClosed    *obs.Counter // splices torn down by the idle deadline
	State         *obs.Gauge   // 0 serving, 1 draining, 2 closed

	// SpliceDurationUS is the admitted splices' lifetimes in microseconds.
	SpliceDurationUS *obs.Histogram
}

// NewMetrics registers the relay's instruments in reg.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		AcceptedConns: reg.Counter("relay_accepted_conns_total"),
		ActiveConns:   reg.Gauge("relay_active_conns"),
		DialErrors:    reg.Counter("relay_dial_errors_total"),
		BytesUpstream: reg.Counter("relay_bytes_upstream_total"),
		BytesDownstr:  reg.Counter("relay_bytes_downstream_total"),
		ShedBusy:      reg.Counter("relay_shed_busy_total"),
		ShedGoingAway: reg.Counter("relay_shed_goingaway_total"),
		AcceptRetries: reg.Counter("relay_accept_retries_total"),
		IdleClosed:    reg.Counter("relay_idle_closed_total"),
		State:         reg.Gauge("relay_state"),

		SpliceDurationUS: reg.Histogram("relay_splice_duration_us", obs.DefaultDurationBucketsMicros()),
	}
}

// Config parameterizes a relay Server.
type Config struct {
	// Dial opens connections to targets; defaults to a net.Dialer.
	// Tests and the examples inject lan fabric dialers here.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// AllowTarget, if set, filters dialable targets (return false to
	// refuse). Production deployments restrict the relay to the
	// receiver datacenter's address space.
	AllowTarget func(addr string) bool
	// DialTimeout bounds the relay's dial to the target (default 10s),
	// so a blackholed target surfaces as a prompt KindError to the
	// client instead of a silent hang.
	DialTimeout time.Duration
	// PreambleTimeout bounds how long a client may take to deliver its
	// dial preamble (default 10s). Without it a client that sends a
	// partial header holds a handler goroutine and connection slot
	// forever — a slowloris on the relay's accept path.
	PreambleTimeout time.Duration

	// MaxConns caps concurrently admitted relay connections; dials
	// arriving over the cap are shed with a BUSY frame before any target
	// dial or preamble read (0 = unlimited). This is the knob that keeps
	// the relay from melting under the very incast it absorbs: past the
	// cap, more splices only add queueing, and an explicit BUSY tells the
	// sender to take the direct path instead of piling on.
	MaxConns int
	// AcceptRate, when positive, limits admissions to this many per
	// second via a token bucket of depth AcceptBurst; dials beyond the
	// budget are shed with BUSY. It smooths connection-setup bursts that
	// MaxConns alone would admit all at once.
	AcceptRate float64
	// AcceptBurst is the token-bucket depth (default 8 when AcceptRate is
	// set).
	AcceptBurst int
	// IdleTimeout tears down a splice when no bytes move in either
	// direction for this long (0 = no idle limit). A stalled peer
	// otherwise pins two goroutines and their buffers forever.
	IdleTimeout time.Duration
	// SpliceTimeout caps a splice's total lifetime regardless of
	// activity (0 = unlimited) — the byte-pump analogue of a request
	// deadline.
	SpliceTimeout time.Duration

	// Registry holds the server's Metrics under relay_* names, so a
	// -debug-addr endpoint can expose them (default: a registry of the
	// server's own).
	Registry *obs.Registry
	// Tracer, if set, records per-connection causal spans (relay.conn ->
	// relay.dial -> relay.splice, joined to the client's trace via the
	// context in the dial preamble) and shed/drain instant events. Create
	// it with obs.NewTracerWithClock so span timestamps are meaningful.
	Tracer *obs.Tracer
	// Logger, if set, receives structured per-connection log lines
	// (sheds, dial failures, drain progress) with trace IDs attached.
	// Nil disables logging.
	Logger *slog.Logger
}

// Server states (Metrics.State): the overload/degradation state machine is
// serving -> draining -> closed, with load-driven BUSY shedding a condition
// of serving rather than a state of its own.
const (
	StateServing int64 = iota
	StateDraining
	StateClosed
)

// Span derivation labels: SpanContext.Child keys for the relay-side spans
// of one flow. Distinct from clientSpanTransfer in chaosnet, so a flow's
// client- and server-side span IDs never collide.
const (
	spanLabelConn   int64 = 1
	spanLabelDial   int64 = 2
	spanLabelSplice int64 = 3
)

// Server is a relay instance. Create with New, run with Serve.
type Server struct {
	cfg     Config
	log     *slog.Logger
	Metrics Metrics

	mu       sync.Mutex
	state    int64
	listener net.Listener
	conns    map[net.Conn]struct{}
	active   int            // admitted splices in flight (MaxConns accounting)
	tokens   float64        // accept-rate bucket level
	lastFill time.Time      // last bucket refill
	wg       sync.WaitGroup // every conn goroutine: splices and shed writers
	inflight sync.WaitGroup // admitted splices only: what Drain waits for

	traceN atomic.Uint64 // server-rooted trace counter for untraced dials

	// bufs holds the splice buffers (*[]byte, spliceBufBytes each) between
	// connections: a direction borrows one for as long as it copies.
	bufs sync.Pool
}

// spliceBufBytes sizes each splice buffer. Larger buffers stream faster on
// loopback, but an idle splice holds both of its buffers for its whole life,
// so memory per connection grows with them (DESIGN.md §10).
const spliceBufBytes = 64 << 10

// The verdict frames: header-only, the same bytes for every connection, so
// each is marshalled once and only ever read.
var (
	frameDialOK    = wire.Marshal(wire.Header{Kind: wire.KindDialOK})
	frameBusy      = wire.Marshal(wire.Header{Kind: wire.KindBusy})
	frameGoingAway = wire.Marshal(wire.Header{Kind: wire.KindGoingAway})
)

// ErrTargetRefused reports a target rejected by AllowTarget.
var ErrTargetRefused = errors.New("relay: target refused by policy")

// ErrDrainTimeout reports a Drain that hit its deadline with splices still
// in flight; they were hard-closed.
var ErrDrainTimeout = errors.New("relay: drain deadline exceeded")

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = d.DialContext
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.PreambleTimeout <= 0 {
		cfg.PreambleTimeout = 10 * time.Second
	}
	if cfg.AcceptRate > 0 && cfg.AcceptBurst <= 0 {
		cfg.AcceptBurst = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		// A handler whose level is unreachable: Enabled() is false for
		// every record, so disabled logging costs one branch, no formatting.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	s := &Server{
		cfg:     cfg,
		log:     log,
		Metrics: NewMetrics(cfg.Registry),
		conns:   make(map[net.Conn]struct{}),
		tokens:  float64(cfg.AcceptBurst),
	}
	s.bufs.New = func() any {
		buf := make([]byte, spliceBufBytes)
		return &buf
	}
	s.Metrics.State.Set(StateServing)
	return s
}

// traceNow reads the tracer's injected clock (0 when untraced/clockless).
func (s *Server) traceNow() units.Time { return s.cfg.Tracer.Now() }

// Registry returns the registry the server's metrics are registered in.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// State returns the server's lifecycle state (StateServing, StateDraining,
// StateClosed).
func (s *Server) State() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// ActiveSplices returns the number of admitted splices in flight.
func (s *Server) ActiveSplices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// acceptBackoff caps the retry delay for transient accept errors.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// Serve accepts relay clients on l until Close or Drain completes (or a
// fatal accept error). Transient accept failures — EMFILE-class resource
// exhaustion, aborted handshakes, timeouts — are retried with capped
// backoff instead of tearing down the listener: running out of file
// descriptors for a moment must degrade, not kill, the relay.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	var backoff time.Duration
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.state == StateClosed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			if retryableAccept(err) {
				if backoff == 0 {
					backoff = acceptBackoffBase
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				s.Metrics.AcceptRetries.Add(1)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.Metrics.AcceptedConns.Add(1)
		admitted, verdict := s.admit(c)
		if !admitted {
			if verdict == 0 {
				// Closed while accepting: no shed goroutine was
				// started, just drop the conn.
				c.Close()
				return net.ErrClosed
			}
			// Sheds happen before the preamble read by design (no work
			// for refused dials), so no trace context exists server-side
			// yet: the shed is an untraced instant here, and the client
			// records the terminal shed event on its own dial span.
			if s.cfg.Tracer != nil {
				name := "relay.shed.busy"
				if verdict == wire.KindGoingAway {
					name = "relay.shed.goaway"
				}
				s.cfg.Tracer.Instant(s.traceNow(), "relay", name, 0)
			}
			s.log.Info("relay: shed dial", "verdict", verdict.String(), "remote", remoteAddr(c))
			continue
		}
		s.Metrics.ActiveConns.Add(1)
		admittedAt := s.traceNow()
		go func() {
			defer s.wg.Done()
			defer s.inflight.Done()
			defer s.release()
			defer s.Metrics.ActiveConns.Add(-1)
			defer s.untrack(c)
			s.handle(c, admittedAt)
		}()
	}
}

// remoteAddr renders a peer address for log lines, tolerating nil.
func remoteAddr(c net.Conn) string {
	if a := c.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// retryableAccept reports whether an accept error is transient: worth a
// capped-backoff retry rather than listener teardown. Covers deadline-style
// timeouts and the EMFILE/ECONNABORTED-class errors net.Error marks
// temporary (the deprecation of Temporary notwithstanding, it is exactly
// the accept-loop signal it was introduced for; net/http's Serve keeps the
// same check).
func retryableAccept(err error) bool {
	var ne net.Error
	if !errors.As(err, &ne) {
		return false
	}
	if ne.Timeout() {
		return true
	}
	type temporary interface{ Temporary() bool }
	var te temporary
	return errors.As(err, &te) && te.Temporary()
}

// admit decides one accepted connection's fate under the admission policy
// and current lifecycle state. It returns (true, 0) for an admitted
// connection — with the splice registered in every waitgroup/counter under
// the lock, so Drain's Wait can never race an Add — or (false, kind) for a
// shed one, spawning the shed writer itself. (false, 0) means the server
// closed mid-accept.
func (s *Server) admit(c net.Conn) (bool, wire.Kind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateClosed:
		return false, 0
	case StateDraining:
		s.shedLocked(c, wire.KindGoingAway)
		return false, wire.KindGoingAway
	}
	if s.cfg.MaxConns > 0 && s.active >= s.cfg.MaxConns {
		s.shedLocked(c, wire.KindBusy)
		return false, wire.KindBusy
	}
	if s.cfg.AcceptRate > 0 && !s.takeTokenLocked() {
		s.shedLocked(c, wire.KindBusy)
		return false, wire.KindBusy
	}
	s.conns[c] = struct{}{}
	s.active++
	s.wg.Add(1)
	s.inflight.Add(1)
	return true, 0
}

// takeTokenLocked refills and draws from the accept-rate bucket.
func (s *Server) takeTokenLocked() bool {
	now := time.Now()
	if !s.lastFill.IsZero() {
		s.tokens += now.Sub(s.lastFill).Seconds() * s.cfg.AcceptRate
		if max := float64(s.cfg.AcceptBurst); s.tokens > max {
			s.tokens = max
		}
	}
	s.lastFill = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// shedLocked spawns the fast-shed writer for a refused connection: one wire
// header, a short write deadline, close. The goroutine is tracked in s.wg
// (but not s.inflight — shed writers must not delay a drain) and the conn
// in s.conns so Close can cut a stalled shed write short.
func (s *Server) shedLocked(c net.Conn, kind wire.Kind) {
	frame := frameGoingAway
	if kind == wire.KindBusy {
		frame = frameBusy
		s.Metrics.ShedBusy.Add(1)
	} else {
		s.Metrics.ShedGoingAway.Add(1)
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.untrack(c)
		defer c.Close()
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(frame); err != nil {
			return
		}
		// Half-close, then drain the client's in-flight preamble before
		// the full close. Closing immediately races with the preamble
		// write the client is making right now: with the preamble unread,
		// a TCP close degrades to an RST that can destroy the verdict in
		// flight (and a lan-pipe close breaks the write outright), so the
		// client sees a generic transport error instead of the explicit
		// shed — and retries a dial this relay just refused. The drain is
		// bounded by the deadline above and the preamble's maximum size.
		if cw, ok := c.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		io.Copy(io.Discard, io.LimitReader(c, wire.HeaderSize+wire.MaxTargetLen))
	}()
}

func (s *Server) release() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
}

// Drain gracefully shuts the server down: new dials are shed with
// GOING_AWAY while established splices run to completion, for at most
// timeout; any splices still alive at the deadline are hard-closed and
// ErrDrainTimeout is returned. Either way the server is fully closed (and
// Serve has returned) when Drain returns; a clean drain returns nil.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.state == StateServing {
		s.state = StateDraining
		s.Metrics.State.Set(StateDraining)
	}
	s.mu.Unlock()
	s.cfg.Tracer.Instant(s.traceNow(), "relay", "relay.drain.begin", 0)
	s.log.Info("relay: drain begun", "timeout", timeout)

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var err error
	select {
	case <-done:
	case <-timer.C:
		err = ErrDrainTimeout
	}
	s.Close()
	if err != nil {
		s.cfg.Tracer.Instant(s.traceNow(), "relay", "relay.drain.timeout", 0)
		s.log.Warn("relay: drain deadline exceeded, splices hard-closed")
	} else {
		s.cfg.Tracer.Instant(s.traceNow(), "relay", "relay.drain.done", 0)
		s.log.Info("relay: drained cleanly")
	}
	return err
}

// Close stops accepting and closes every active connection, then waits for
// handlers to drain. It is the hard stop; use Drain for the graceful path.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return nil
	}
	s.state = StateClosed
	s.Metrics.State.Set(StateClosed)
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handle runs one relayed connection to completion. admittedAt is the
// admission timestamp on the tracer clock (0 when untraced), taken in the
// accept loop so the relay.conn span starts where the slot was claimed.
func (s *Server) handle(client net.Conn, admittedAt units.Time) {
	defer client.Close()
	// Checked once: with Debug off, the per-connection lines cost this
	// branch and never format their arguments.
	debug := s.log.Enabled(context.Background(), slog.LevelDebug)
	client.SetReadDeadline(time.Now().Add(s.cfg.PreambleTimeout))
	d, err := readDial(client)
	if err != nil {
		s.log.Warn("relay: bad preamble", "remote", remoteAddr(client), "err", err)
		writeError(client, err)
		return
	}
	client.SetReadDeadline(time.Time{})

	// Join the client's trace: the preamble carried its span context, and
	// both sides derive the same child IDs from it (obs.SpanContext.Child).
	// A legacy dialer sends no context (TraceID 0); the relay then roots a
	// server-local trace so `relayd -trace` still yields one span tree per
	// flow even when no client cooperates.
	var conn *obs.Span
	parent := obs.SpanContext{Trace: d.TraceID, Span: d.SpanID}
	if s.cfg.Tracer != nil {
		if parent.Trace == 0 {
			parent = obs.NewSpanContext(int64(s.traceN.Add(1)), spanLabelConn)
		}
		conn = s.cfg.Tracer.StartSpan(admittedAt, "relay", "relay.conn", parent, spanLabelConn,
			obs.Arg{Key: "target", Val: d.Target})
	}
	if debug {
		s.log.Debug("relay: admitted", "remote", remoteAddr(client),
			"target", d.Target, "trace", obs.IDString(parent.Trace))
	}

	if s.cfg.AllowTarget != nil && !s.cfg.AllowTarget(d.Target) {
		s.Metrics.DialErrors.Add(1)
		s.log.Warn("relay: target refused by policy", "target", d.Target, "trace", obs.IDString(parent.Trace))
		if conn != nil {
			conn.End(s.traceNow(), obs.Arg{Key: "outcome", Val: "refused"})
		}
		writeError(client, ErrTargetRefused)
		return
	}
	var td *obs.Span
	if conn != nil {
		td = conn.Child(s.traceNow(), "relay", "relay.dial", spanLabelDial)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DialTimeout)
	remote, err := s.cfg.Dial(ctx, "tcp", d.Target)
	cancel()
	if err != nil {
		s.Metrics.DialErrors.Add(1)
		s.log.Warn("relay: target dial failed", "target", d.Target,
			"trace", obs.IDString(parent.Trace), "err", err)
		if conn != nil {
			td.End(s.traceNow(), obs.Arg{Key: "outcome", Val: "error"})
			conn.End(s.traceNow(), obs.Arg{Key: "outcome", Val: "dial-error"})
		}
		writeError(client, err)
		return
	}
	if conn != nil {
		td.End(s.traceNow(), obs.Arg{Key: "outcome", Val: "ok"})
	}
	defer remote.Close()
	if _, err := client.Write(frameDialOK); err != nil {
		if conn != nil {
			conn.End(s.traceNow(), obs.Arg{Key: "outcome", Val: "client-gone"})
		}
		return
	}
	var sp *obs.Span
	if conn != nil {
		sp = conn.Child(s.traceNow(), "relay", "relay.splice", spanLabelSplice)
	}
	start := time.Now()
	up, down := s.splice(client, remote)
	s.Metrics.SpliceDurationUS.Observe(time.Since(start).Microseconds())
	if conn != nil {
		now := s.traceNow()
		sp.End(now,
			obs.Arg{Key: "up_bytes", Val: fmt.Sprint(up)},
			obs.Arg{Key: "down_bytes", Val: fmt.Sprint(down)})
		conn.End(now, obs.Arg{Key: "outcome", Val: "ok"})
	}
	if debug {
		s.log.Debug("relay: splice done", "target", d.Target,
			"trace", obs.IDString(parent.Trace), "up_bytes", up, "down_bytes", down)
	}
}

// spliceState is the deadline bookkeeping shared by a splice's two copy
// directions: one direction's progress keeps the other's idle clock from
// firing (a one-way bulk transfer is busy, not idle), and the teardown is
// counted once no matter which side trips it. It also carries the
// downstream copier's result back to the handler that joins it.
type spliceState struct {
	activity atomic.Int64 // UnixNano of the last byte moved, either direction
	lifetime time.Time    // absolute SpliceTimeout deadline (zero = none)
	timedOut atomic.Bool

	down     int64          // bytes moved target->client, set before downDone
	downDone sync.WaitGroup // the downstream copier
}

// splice copies bytes both ways until both directions finish, returning
// the byte counts moved client->target (up) and target->client (down). The
// calling goroutine copies upstream itself; one goroutine copies downstream
// and is joined before splice returns.
func (s *Server) splice(client, remote net.Conn) (up, down int64) {
	st := &spliceState{}
	st.activity.Store(time.Now().UnixNano())
	if s.cfg.SpliceTimeout > 0 {
		st.lifetime = time.Now().Add(s.cfg.SpliceTimeout)
	}
	st.downDone.Add(1)
	go func() {
		defer st.downDone.Done()
		st.down = s.copyDirection(client, remote, st)
		s.Metrics.BytesDownstr.Add(uint64(st.down))
	}()
	up = s.copyDirection(remote, client, st)
	s.Metrics.BytesUpstream.Add(uint64(up))
	st.downDone.Wait()
	return up, st.down
}

// copyDirection streams src->dst, half-closing dst when src ends, and fully
// closing both on error so the opposite direction unblocks. Reads and
// writes carry the splice's idle/lifetime deadline; a read that times out
// while the *other* direction is still moving bytes is re-armed, so only a
// splice idle in both directions (or past its lifetime) is torn down.
func (s *Server) copyDirection(dst, src net.Conn, st *spliceState) int64 {
	pooled := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(pooled)
	buf := *pooled
	var n int64
	for {
		if limit, ok := s.spliceDeadline(st); ok {
			src.SetReadDeadline(limit)
		}
		rn, rerr := src.Read(buf)
		if rn > 0 {
			st.activity.Store(time.Now().UnixNano())
			if limit, ok := s.spliceDeadline(st); ok {
				dst.SetWriteDeadline(limit)
			}
			wn, werr := dst.Write(buf[:rn])
			n += int64(wn)
			if werr != nil {
				if isDeadline(werr) {
					s.noteSpliceTimeout(st)
				}
				dst.Close()
				src.Close()
				return n
			}
			st.activity.Store(time.Now().UnixNano())
		}
		if rerr != nil {
			// EOF, the normal end of a direction, is checked first.
			if errors.Is(rerr, io.EOF) {
				if cw, ok := dst.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				} else {
					dst.Close()
				}
				return n
			}
			if isDeadline(rerr) {
				if s.stillLive(st) {
					continue // the other direction is active
				}
				s.noteSpliceTimeout(st)
			}
			dst.Close()
			src.Close()
			return n
		}
	}
}

// spliceDeadline computes the next absolute I/O deadline for a splice: the
// earlier of "last activity + IdleTimeout" and the lifetime cap.
func (s *Server) spliceDeadline(st *spliceState) (time.Time, bool) {
	var limit time.Time
	if s.cfg.IdleTimeout > 0 {
		limit = time.Unix(0, st.activity.Load()).Add(s.cfg.IdleTimeout)
	}
	if !st.lifetime.IsZero() && (limit.IsZero() || st.lifetime.Before(limit)) {
		limit = st.lifetime
	}
	return limit, !limit.IsZero()
}

// stillLive reports whether a deadline-expired read should be re-armed:
// true while the splice saw activity within the idle window and is inside
// its lifetime.
func (s *Server) stillLive(st *spliceState) bool {
	now := time.Now()
	if !st.lifetime.IsZero() && !now.Before(st.lifetime) {
		return false
	}
	if s.cfg.IdleTimeout <= 0 {
		return true
	}
	return now.Before(time.Unix(0, st.activity.Load()).Add(s.cfg.IdleTimeout))
}

func (s *Server) noteSpliceTimeout(st *spliceState) {
	if st.timedOut.CompareAndSwap(false, true) {
		s.Metrics.IdleClosed.Add(1)
	}
}

// isDeadline reports a timeout-flavoured I/O error (os.ErrDeadlineExceeded
// on real sockets, the lan pipe's timeoutError in tests), however wrapped.
// The first error in the chain that has a Timeout method decides, as with
// errors.As; the walk is by hand because errors.As heap-allocates its target,
// and an idle splice asks once per idle tick per direction.
func isDeadline(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if t, ok := err.(interface{ Timeout() bool }); ok {
			return t.Timeout()
		}
	}
	return false
}

// readDial consumes the client's dial preamble (target + trace context).
// Malformed preambles (truncated, oversized, garbage) surface as the wire
// package's typed errors.
func readDial(c net.Conn) (wire.Dial, error) {
	d, err := wire.ReadDial(c)
	if err != nil {
		return wire.Dial{}, fmt.Errorf("relay: %w", err)
	}
	return d, nil
}

// writeError best-effort reports a failure to the client.
func writeError(c net.Conn, err error) {
	msg := []byte(err.Error())
	if len(msg) > wire.MaxErrorLen {
		msg = msg[:wire.MaxErrorLen]
	}
	buf := wire.AppendHeader(nil, wire.Header{Kind: wire.KindError, Length: uint32(len(msg))})
	_, _ = c.Write(append(buf, msg...)) // best-effort: the peer may already be gone
}

// ErrRelayBusy reports a dial the relay shed with a BUSY frame: the relay
// is alive but at admission capacity. Retrying immediately amplifies the
// overload; back off or take the direct path.
var ErrRelayBusy = errors.New("relay: busy (admission shed)")

// ErrRelayDraining reports a dial the relay shed with GOING_AWAY: the relay
// is gracefully shutting down. Re-route rather than retry.
var ErrRelayDraining = errors.New("relay: draining (going away)")

// IsShed reports whether err is an explicit relay overload verdict
// (BUSY or GOING_AWAY) rather than a transport failure.
func IsShed(err error) bool {
	return errors.Is(err, ErrRelayBusy) || errors.Is(err, ErrRelayDraining)
}

// DialViaRelay opens a client connection through the relay at relayAddr to
// target, performing the preamble handshake. The returned conn carries the
// end-to-end byte stream. A relay that sheds the dial surfaces as
// ErrRelayBusy (admission) or ErrRelayDraining (graceful shutdown) — both
// prompt, explicit verdicts (IsShed) on which the caller can take the direct
// path instead of retrying.
func DialViaRelay(ctx context.Context,
	dial func(ctx context.Context, network, addr string) (net.Conn, error),
	relayAddr, target string) (net.Conn, error) {
	return DialViaRelaySpan(ctx, dial, relayAddr, target, obs.SpanContext{})
}

// DialViaRelaySpan is DialViaRelay with a span context attached: sc rides
// the dial preamble (header FlowID/Seq), so the relay's server-side spans
// join the caller's trace. A zero sc dials untraced.
func DialViaRelaySpan(ctx context.Context,
	dial func(ctx context.Context, network, addr string) (net.Conn, error),
	relayAddr, target string, sc obs.SpanContext) (net.Conn, error) {
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	c, err := dial(ctx, "tcp", relayAddr)
	if err != nil {
		return nil, err
	}
	// The context must bound the whole handshake, not just the dial: a
	// relay that accepts the connection and then dies (or a listener that
	// closed with this dial in its backlog) would otherwise hang the
	// response read forever.
	deadlined := false
	if dl, ok := ctx.Deadline(); ok {
		deadlined = c.SetDeadline(dl) == nil
	}
	// One buffer: the preamble goes out of it, the verdict header comes
	// back into its front.
	pre, err := wire.AppendDial(make([]byte, 0, wire.HeaderSize+len(target)),
		wire.Dial{Target: target, TraceID: sc.Trace, SpanID: sc.Span})
	if err != nil {
		c.Close()
		return nil, err
	}
	if _, err := c.Write(pre); err != nil {
		c.Close()
		return nil, err
	}
	hdr := pre[:wire.HeaderSize]
	if _, err := io.ReadFull(c, hdr); err != nil {
		c.Close()
		return nil, fmt.Errorf("relay: reading dial response: %w", err)
	}
	h, err := wire.Parse(hdr)
	if err != nil {
		c.Close()
		return nil, err
	}
	switch h.Kind {
	case wire.KindDialOK:
		if deadlined {
			c.SetDeadline(time.Time{})
		}
		return c, nil
	case wire.KindBusy:
		c.Close()
		return nil, ErrRelayBusy
	case wire.KindGoingAway:
		c.Close()
		return nil, ErrRelayDraining
	case wire.KindError:
		// Length is the peer's claim: read no more than a relay sends.
		msg := make([]byte, min(h.Length, wire.MaxErrorLen))
		n, err := io.ReadFull(c, msg)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("relay: error reply cut short at %d of %d bytes (%q): %w", n, h.Length, msg[:n], err)
		}
		return nil, fmt.Errorf("relay: %s", msg)
	default:
		c.Close()
		return nil, fmt.Errorf("relay: unexpected response %v", h.Kind)
	}
}
