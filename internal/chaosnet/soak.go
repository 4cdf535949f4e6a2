package chaosnet

// The chaos soak drives the real relay data plane — real TCP sockets, the
// production Server and DialViaRelay code paths — through a fault-injecting
// chaosnet proxy at 2x admission capacity, and checks the overload
// contract:
//
//   - every dial resolves promptly: admitted, explicitly shed (BUSY /
//     GOING_AWAY), or failed with a transport error. Never a silent hang.
//   - admitted connections finish their transfers with a bounded p99, even
//     with delays, stalls, partial writes, and resets in the path.
//   - a graceful drain afterwards leaves nothing behind (the caller pairs
//     RunSoak with a goroutine-leak check).
//
// The harness reads no clocks of its own: Now comes in through SoakConfig
// (and Sleep through Faults), so the package stays under the wall-clock
// lint alongside the virtual-time packages.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"incastproxy/internal/obs"
	"incastproxy/internal/relay"
)

// SoakConfig parameterizes one soak run.
type SoakConfig struct {
	// Seed roots the fault schedule (per-connection plans derive from it).
	Seed int64
	// Capacity is the relay's MaxConns; the soak fires 2x this many
	// concurrent dials (Conns overrides).
	Capacity int
	// Conns is the total concurrent client dials (default 2*Capacity).
	Conns int
	// PayloadBytes is each admitted connection's echo payload (default 64 KiB).
	PayloadBytes int
	// Faults is injected between clients and the relay. Faults.Seed is
	// overridden with Seed.
	Faults Faults
	// DialBound is the silent-hang bar: every dial must resolve —
	// admitted or shed — within it (default 5s).
	DialBound time.Duration
	// TransferBound caps an admitted connection's full echo round trip
	// (default 30s); it also bounds the post-soak drain.
	TransferBound time.Duration
	// P99Bound is the acceptance bar for admitted-connection completion
	// times (default TransferBound).
	P99Bound time.Duration
	// IdleTimeout configures the relay's per-splice idle deadline, letting
	// injected stalls exercise the reclaim path (0 = none).
	IdleTimeout time.Duration
	// Now supplies the clock for completion-time measurement and socket
	// deadlines; required (tests and proxybench pass time.Now).
	Now func() time.Time
	// Registry, if set, collects relay_* and chaos_* instruments.
	Registry *obs.Registry
	// Tracer, if set, records the full causal span tree of every dial —
	// client.dial/client.transfer client-side, relay.conn/relay.dial/
	// relay.splice server-side, joined by the context in the dial
	// preamble — plus chaos-fault and shed instants. Create it with
	// obs.NewTracerWithClock (cliutil.WallClock adapts cfg.Now). Check
	// then enforces the trace-completeness invariant.
	Tracer *obs.Tracer
	// Logger, if set, receives the relay's structured per-connection log
	// lines (trace IDs included), so a soak's logs correlate with its trace.
	Logger *slog.Logger
}

// SoakResult is one run's outcome tally.
type SoakResult struct {
	Conns    int // dials fired
	Admitted int // full echo round trips completed
	Shed     int // explicit BUSY/GOING_AWAY verdicts observed client-side
	Faulted  int // transport errors (injected resets and their fallout)
	Hung     int // dials or transfers that hit their bound: contract violations

	P99      time.Duration // admitted-connection completion p99 (0 if none)
	P99Bound time.Duration // the bar Check holds P99 to: SoakConfig.P99Bound as defaulted

	// Server-side accounting, for cross-checking the client view.
	ServerSheds    uint64 // BUSY + GOING_AWAY frames the relay sent
	ServerAccepted uint64
	IdleClosed     uint64
	DrainErr       error // non-nil if the post-soak drain timed out

	// Trace accounting (populated when SoakConfig.Tracer was set): the
	// trace IDs of flows the client saw admitted / explicitly shed, and
	// the tracer itself for Check's completeness invariant and export.
	AdmittedTraces []uint64
	ShedTraces     []uint64
	Tracer         *obs.Tracer
}

// Check asserts the overload contract on a finished run.
func (r *SoakResult) Check() error {
	if r.Hung > 0 {
		return fmt.Errorf("soak: %d connections hung past their bound (sheds must be explicit, never silent)", r.Hung)
	}
	if r.Admitted == 0 {
		return errors.New("soak: no connection was ever admitted")
	}
	if got := r.Admitted + r.Shed + r.Faulted; got != r.Conns {
		return fmt.Errorf("soak: outcomes %d != dials %d", got, r.Conns)
	}
	if r.P99 > r.P99Bound {
		return fmt.Errorf("soak: admitted p99 %v exceeds bound %v", r.P99, r.P99Bound)
	}
	// Every client-observed shed is a frame the server counted; the server
	// may have sent more (a BUSY answer can be eaten by an injected reset,
	// surfacing client-side as a transport fault instead).
	if uint64(r.Shed) > r.ServerSheds {
		return fmt.Errorf("soak: client saw %d sheds, server sent %d", r.Shed, r.ServerSheds)
	}
	if r.DrainErr != nil {
		return fmt.Errorf("soak: post-soak drain: %w", r.DrainErr)
	}
	// Trace completeness: every admitted dial yields a well-formed causal
	// span tree — client dial and transfer plus the relay's conn, target
	// dial, and splice, all closed (the drain finished, so no span may
	// still be open) — and every shed dial yields a terminal shed event.
	if r.Tracer != nil {
		sums := r.Tracer.Summaries()
		for _, id := range r.AdmittedTraces {
			s := sums[id]
			if s == nil {
				return fmt.Errorf("soak: admitted flow %s recorded no trace", obs.IDString(id))
			}
			if s.Open != 0 {
				return fmt.Errorf("soak: trace %s left %d spans open after drain", obs.IDString(id), s.Open)
			}
			for _, name := range []string{"client.dial", "client.transfer", "relay.conn", "relay.dial", "relay.splice"} {
				if s.Spans[name] == 0 {
					return fmt.Errorf("soak: trace %s has no completed %s span", obs.IDString(id), name)
				}
			}
		}
		for _, id := range r.ShedTraces {
			s := sums[id]
			if s == nil || s.Instants["client.shed"] == 0 {
				return fmt.Errorf("soak: shed flow %s lacks a terminal shed event", obs.IDString(id))
			}
			if s.Open != 0 {
				return fmt.Errorf("soak: shed trace %s left %d spans open", obs.IDString(id), s.Open)
			}
		}
	}
	return nil
}

// WANFaults is the soak's fault mix between clients and the relay, the one
// `make soak` and `proxybench -soak` run: 5% of chunks delayed 1-5 ms, 20% of
// directions reset within their first 256 KiB, 10% stalled 50 ms within their
// first 64 KiB, and writes cut to 4 KiB. sleep services the delays and
// stalls.
func WANFaults(sleep func(time.Duration)) Faults {
	return Faults{
		DelayProb:   0.05,
		DelayMin:    time.Millisecond,
		DelayMax:    5 * time.Millisecond,
		ResetProb:   0.2,
		ResetWindow: 256 << 10,
		StallProb:   0.1,
		StallFor:    50 * time.Millisecond,
		StallWindow: 64 << 10,
		MaxChunk:    4 << 10,
		Sleep:       sleep,
	}
}

func (cfg *SoakConfig) withDefaults() error {
	if cfg.Now == nil {
		return errors.New("chaosnet: SoakConfig.Now is required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 2 * cfg.Capacity
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 64 << 10
	}
	if cfg.DialBound <= 0 {
		cfg.DialBound = 5 * time.Second
	}
	if cfg.TransferBound <= 0 {
		cfg.TransferBound = 30 * time.Second
	}
	if cfg.P99Bound <= 0 {
		cfg.P99Bound = cfg.TransferBound
	}
	cfg.Faults.Seed = cfg.Seed
	return nil
}

// RunSoak stands up the full live path — echo sink, relay server with
// admission control, chaos proxy — on loopback TCP, fires cfg.Conns
// concurrent clients through it, drains the relay, and tallies the
// outcomes. Call (*SoakResult).Check for the pass/fail verdict.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}

	// Echo sink: the far end of every splice.
	sinkL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer sinkL.Close()
	//lint:ignore orphangoroutine accept loop exits when the deferred sinkL.Close fires; LeakCheck in the soak tests verifies it
	go func() {
		for {
			c, err := sinkL.Accept()
			if err != nil {
				return
			}
			//lint:ignore orphangoroutine echo pump dies with its conn, whose relay side is closed by Drain at teardown
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()

	// Relay under test: admission-capped, idle-guarded, instrumented.
	relayL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := relay.New(relay.Config{
		MaxConns:    cfg.Capacity,
		IdleTimeout: cfg.IdleTimeout,
		Registry:    cfg.Registry,
		Tracer:      cfg.Tracer,
		Logger:      cfg.Logger,
	})
	//lint:ignore orphangoroutine Serve returns when srv.Drain (below) closes the listener; Drain's wg.Wait joins the handlers
	go srv.Serve(relayL)

	// Chaos proxy between the clients and the relay.
	chaosL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	chaos := New(relayL.Addr().String(), nil, cfg.Faults, cfg.Registry)
	chaos.SetTracer(cfg.Tracer)
	//lint:ignore orphangoroutine Serve returns when chaos.Close (after drain) closes the listener and waits for forwarders
	go chaos.Serve(chaosL)

	res := &SoakResult{Conns: cfg.Conns, P99Bound: cfg.P99Bound, Tracer: cfg.Tracer}
	var mu sync.Mutex
	fcts := make([]time.Duration, 0, cfg.Conns)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcome, fct, trace := cfg.runOne(i, chaosL.Addr().String(), sinkL.Addr().String())
			mu.Lock()
			defer mu.Unlock()
			switch outcome {
			case outcomeAdmitted:
				res.Admitted++
				fcts = append(fcts, fct)
				if trace != 0 {
					res.AdmittedTraces = append(res.AdmittedTraces, trace)
				}
			case outcomeShed:
				res.Shed++
				if trace != 0 {
					res.ShedTraces = append(res.ShedTraces, trace)
				}
			case outcomeFaulted:
				res.Faulted++
			case outcomeHung:
				res.Hung++
			}
		}(i)
	}
	wg.Wait()

	// Graceful teardown: nothing is in flight, so the drain must be clean
	// and prompt; the chaos proxy follows.
	res.DrainErr = srv.Drain(cfg.TransferBound)
	chaos.Close()

	res.ServerSheds = srv.Metrics.ShedBusy.Load() + srv.Metrics.ShedGoingAway.Load()
	res.ServerAccepted = srv.Metrics.AcceptedConns.Load()
	res.IdleClosed = srv.Metrics.IdleClosed.Load()
	if len(fcts) > 0 {
		sort.Slice(fcts, func(a, b int) bool { return fcts[a] < fcts[b] })
		res.P99 = fcts[(len(fcts)*99)/100]
	}
	return res, nil
}

type outcome int

const (
	outcomeAdmitted outcome = iota
	outcomeShed
	outcomeFaulted
	outcomeHung
)

// Span derivation labels for the soak's client-side spans. Distinct from
// the relay server's labels (1-3), so one flow's client and server span
// IDs never collide.
const (
	// soakTraceLabel namespaces soak trace IDs within the run seed, away
	// from the chaos proxy's per-connection fault-plan seeds.
	soakTraceLabel int64 = 0x74726163 // "trac"
	// clientSpanTransfer keys the client.transfer child span.
	clientSpanTransfer int64 = 10
)

// runOne is one client's journey: dial through the chaos proxy, and on
// admission push the payload and read the echo back under a deadline.
// The returned trace ID is 0 when the run is untraced.
func (cfg *SoakConfig) runOne(i int, chaosAddr, sinkAddr string) (outcome, time.Duration, uint64) {
	start := cfg.Now()
	tr := cfg.Tracer
	var sc obs.SpanContext
	var root *obs.Span
	if tr != nil {
		sc = obs.NewSpanContext(cfg.Seed, soakTraceLabel, int64(i))
		root = tr.StartRoot(tr.Now(), "client", "client.dial", sc,
			obs.Int("conn", int64(i)))
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		// Bound the preamble handshake: a shed verdict (or failure) must
		// arrive within DialBound or the run counts a hang.
		c.SetDeadline(start.Add(cfg.DialBound))
		return c, nil
	}
	conn, err := relay.DialViaRelaySpan(context.Background(), dial, chaosAddr, sinkAddr, sc)
	if err != nil {
		switch {
		case relay.IsShed(err):
			// The relay sheds before reading the preamble, so the shed
			// never reaches the server-side trace: the client records
			// the terminal shed event on its own dial span.
			root.Annotate(tr.Now(), "client.shed")
			root.End(tr.Now(), obs.Arg{Key: "outcome", Val: "shed"})
			return outcomeShed, 0, sc.Trace
		case isTimeout(err):
			root.End(tr.Now(), obs.Arg{Key: "outcome", Val: "hung"})
			return outcomeHung, 0, sc.Trace
		default:
			root.End(tr.Now(), obs.Arg{Key: "outcome", Val: "faulted"})
			return outcomeFaulted, 0, sc.Trace
		}
	}
	root.End(tr.Now(), obs.Arg{Key: "outcome", Val: "admitted"})
	var tf *obs.Span
	if tr != nil {
		tf = tr.StartSpan(tr.Now(), "client", "client.transfer", sc, clientSpanTransfer)
	}
	defer conn.Close()
	conn.SetDeadline(cfg.Now().Add(cfg.TransferBound))
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		_, werr := conn.Write(payload)
		done <- werr
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		if isTimeout(err) {
			tf.End(tr.Now(), obs.Arg{Key: "outcome", Val: "hung"})
			return outcomeHung, 0, sc.Trace
		}
		tf.End(tr.Now(), obs.Arg{Key: "outcome", Val: "faulted"})
		return outcomeFaulted, 0, sc.Trace
	}
	if werr := <-done; werr != nil {
		tf.End(tr.Now(), obs.Arg{Key: "outcome", Val: "faulted"})
		return outcomeFaulted, 0, sc.Trace
	}
	for i := range got {
		if got[i] != payload[i] {
			tf.End(tr.Now(), obs.Arg{Key: "outcome", Val: "corrupt"})
			return outcomeFaulted, 0, sc.Trace
		}
	}
	tf.End(tr.Now(), obs.Arg{Key: "outcome", Val: "ok"})
	return outcomeAdmitted, cfg.Now().Sub(start), sc.Trace
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
