// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package chaosnet is a deterministic fault-injecting TCP proxy for chaos
// testing the live relay path. It sits between a client and a server,
// forwarding bytes while injecting the failure modes a WAN inflicts on real
// connections — added latency, partial writes, mid-stream resets, stalls —
// according to per-connection plans derived from a single seed
// (rng.DeriveSeed), so a soak run's fault schedule is reproducible from its
// seed alone.
//
// The package never reads the wall clock directly: delays and stalls go
// through an injected Sleep, keeping the non-test sources clock-free (the
// same discipline internal/obs's wall-clock lint enforces on the
// virtual-time packages, which chaosnet is held to as well).
package chaosnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
)

// Faults parameterizes the injected failure modes. The zero value injects
// nothing (a transparent proxy). Probabilities are per connection direction;
// offsets are drawn uniformly over the configured windows.
type Faults struct {
	// Seed roots every per-connection fault plan. Two proxies with the
	// same Seed and Faults inject the same schedule (per accept order).
	Seed int64

	// DelayProb is the chance each forwarded chunk is delayed by a uniform
	// draw from [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration

	// ResetProb is the chance a direction is reset mid-stream: the
	// connection is torn down (with SO_LINGER 0 on real TCP, so the peer
	// sees an RST, not a graceful EOF) once the direction has forwarded a
	// byte offset drawn uniformly from [0, ResetWindow).
	ResetProb   float64
	ResetWindow int64

	// StallProb is the chance a direction freezes once for StallFor at a
	// byte offset drawn uniformly from [0, StallWindow) — the
	// silent-peer failure idle deadlines exist to reclaim.
	StallProb   float64
	StallFor    time.Duration
	StallWindow int64

	// MaxChunk caps bytes forwarded per write (0 = unlimited), forcing
	// the partial-write interleavings bulk tests never exercise.
	MaxChunk int

	// Sleep services delays and stalls; required when DelayProb or
	// StallProb is set (tests pass time.Sleep).
	Sleep func(time.Duration)
}

// Metrics counts what the proxy injected and moved.
type Metrics struct {
	Conns  *obs.Counter
	Resets *obs.Counter
	Stalls *obs.Counter
	Delays *obs.Counter
	Bytes  *obs.Counter
}

// NewMetrics registers the proxy's counters in reg under chaos_* names.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		Conns:  reg.Counter("chaos_conns_total"),
		Resets: reg.Counter("chaos_resets_total"),
		Stalls: reg.Counter("chaos_stalls_total"),
		Delays: reg.Counter("chaos_delays_total"),
		Bytes:  reg.Counter("chaos_bytes_total"),
	}
}

// Proxy is one fault-injecting forwarder. Create with New, run with Serve.
type Proxy struct {
	target  string
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)
	faults  Faults
	Metrics Metrics

	tracer *obs.Tracer

	mu       sync.Mutex
	closed   bool
	nextID   int64
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// SetTracer attaches a tracer: injected faults (resets, stalls, delays)
// become instant events on the decision timeline, timestamped by the
// tracer's injected clock. Call before Serve.
func (p *Proxy) SetTracer(tr *obs.Tracer) { p.tracer = tr }

// New returns a Proxy that forwards accepted connections to target over
// dial (default net.Dialer), injecting per faults. Its Metrics are
// registered in reg, or in a registry of its own when reg is nil.
func New(target string, dial func(ctx context.Context, network, addr string) (net.Conn, error), faults Faults, reg *obs.Registry) *Proxy {
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	if faults.Sleep == nil {
		faults.Sleep = func(time.Duration) {}
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Proxy{
		target:  target,
		dial:    dial,
		faults:  faults,
		Metrics: NewMetrics(reg),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Serve accepts and forwards connections on l until Close.
func (p *Proxy) Serve(l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	p.listener = l
	p.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		id := p.nextID
		p.nextID++
		p.conns[c] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		p.Metrics.Conns.Add(1)
		go func() {
			defer p.wg.Done() // paired with the Add under p.mu above
			p.forward(c, id)
		}()
	}
}

// Close stops the proxy: the listener and every in-flight connection are
// torn down, and all forwarders have exited when Close returns.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	l := p.listener
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	if l != nil {
		l.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// forward runs one proxied connection: dial upstream, then pump each
// direction under its own fault plan (independent seeds, so a reset in one
// direction and a stall in the other can coincide).
func (p *Proxy) forward(client net.Conn, id int64) {
	defer p.untrack(client)
	defer client.Close()
	upstream, err := p.dial(context.Background(), "tcp", p.target)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		upstream.Close()
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.untrack(upstream)
	defer upstream.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(upstream, client, p.newPlan(id, 0))
	}()
	go func() {
		defer wg.Done()
		p.pump(client, upstream, p.newPlan(id, 1))
	}()
	wg.Wait()
}

// plan is one direction's predetermined fault schedule.
type plan struct {
	src     *rng.Source
	resetAt int64 // byte offset to reset at; -1 = never
	stallAt int64 // byte offset to stall at; -1 = never
}

func (p *Proxy) newPlan(conn, dir int64) *plan {
	r := rng.New(rng.DeriveSeed(p.faults.Seed, conn, dir))
	pl := &plan{src: r, resetAt: -1, stallAt: -1}
	if p.faults.ResetProb > 0 && r.Float64() < p.faults.ResetProb {
		pl.resetAt = boundedOffset(r, p.faults.ResetWindow)
	}
	if p.faults.StallProb > 0 && r.Float64() < p.faults.StallProb {
		pl.stallAt = boundedOffset(r, p.faults.StallWindow)
	}
	return pl
}

func boundedOffset(r *rng.Source, window int64) int64 {
	if window <= 0 {
		window = 64 << 10
	}
	return int64(r.Intn(int(window)))
}

// errInjectedReset marks a plan-scheduled teardown.
var errInjectedReset = errors.New("chaosnet: injected reset")

// pump forwards src->dst, applying the direction's fault plan per chunk.
func (p *Proxy) pump(dst, src net.Conn, pl *plan) {
	buf := make([]byte, 32<<10)
	var offset int64
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if err := p.inject(dst, src, buf[:n], &offset, pl); err != nil {
				return
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				if cw, ok := dst.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				} else {
					dst.Close()
				}
			} else {
				dst.Close()
				src.Close()
			}
			return
		}
	}
}

// inject forwards one read's worth of bytes in MaxChunk pieces, applying
// delays, the stall, and the reset as their offsets come due.
func (p *Proxy) inject(dst, src net.Conn, b []byte, offset *int64, pl *plan) error {
	for len(b) > 0 {
		chunk := b
		if p.faults.MaxChunk > 0 && len(chunk) > p.faults.MaxChunk {
			chunk = chunk[:p.faults.MaxChunk]
		}
		if pl.stallAt >= 0 && pl.stallAt < *offset+int64(len(chunk)) {
			pl.stallAt = -1
			p.Metrics.Stalls.Add(1)
			p.tracer.Instant(p.tracer.Now(), "chaos", "chaos.stall", 0)
			p.faults.Sleep(p.faults.StallFor)
		}
		if pl.resetAt >= 0 && pl.resetAt < *offset+int64(len(chunk)) {
			p.Metrics.Resets.Add(1)
			p.tracer.Instant(p.tracer.Now(), "chaos", "chaos.reset", 0)
			reset(dst)
			reset(src)
			return errInjectedReset
		}
		if p.faults.DelayProb > 0 && pl.src.Float64() < p.faults.DelayProb {
			p.Metrics.Delays.Add(1)
			p.faults.Sleep(delayDraw(pl.src, p.faults.DelayMin, p.faults.DelayMax))
		}
		n, err := dst.Write(chunk)
		p.Metrics.Bytes.Add(uint64(n))
		*offset += int64(n)
		if err != nil {
			src.Close()
			return err
		}
		b = b[len(chunk):]
	}
	return nil
}

func delayDraw(r *rng.Source, min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(r.Intn(int(max-min)))
}

// reset tears a connection down abruptly: SO_LINGER 0 on real TCP makes the
// peer see an RST instead of a graceful close.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
