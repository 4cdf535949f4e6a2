package relay

// Overload-protection behavior of the live relay server: admission sheds
// must be fast and explicit (a BUSY/GOING_AWAY frame, never a hang), drains
// must be brownouts (established splices finish while new dials are turned
// away), and deadlines must reclaim what stalled peers would otherwise pin
// — without ever tearing down a splice that is busy in only one direction.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"incastproxy/internal/cliutil"
	"incastproxy/internal/lan"
)

func TestRelayShedsOverMaxConns(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay"), MaxConns: 2})
	go srv.Serve(relayL)
	defer srv.Close()

	// Fill both admission slots with live splices.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	// The third dial must get an explicit BUSY, promptly.
	start := time.Now()
	_, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if !errors.Is(err, ErrRelayBusy) || !IsShed(err) {
		t.Fatalf("over-cap dial: err = %v, want ErrRelayBusy, a shed", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("BUSY verdict took %v; sheds must be fast", d)
	}
	if srv.Metrics.ShedBusy.Load() != 1 {
		t.Fatalf("shed busy = %d, want 1", srv.Metrics.ShedBusy.Load())
	}

	// Brownout, not blackout: the established splices were untouched.
	for _, c := range held {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatalf("established splice broken by shed: %v", err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("established splice broken by shed: %v", err)
		}
	}

	// Releasing a slot re-opens admission.
	held[0].Close()
	if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool {
		return srv.ActiveSplices() < 2
	}) {
		t.Fatalf("splice slot never released: active = %d", srv.ActiveSplices())
	}
	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatalf("dial after slot release: %v", err)
	}
	c.Close()
	held[1].Close()
	srv.Close()
}

func TestRelayAcceptRateShed(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	// One token, refilled far too slowly to matter within the test.
	srv := New(Config{Dial: f.Dialer("relay"), AcceptRate: 0.001, AcceptBurst: 1})
	go srv.Serve(relayL)
	defer srv.Close()

	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatalf("first dial (one token banked): %v", err)
	}
	defer c.Close()
	if _, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink"); !errors.Is(err, ErrRelayBusy) || !IsShed(err) {
		t.Fatalf("bucket-empty dial: err = %v, want ErrRelayBusy, a shed", err)
	}
	if srv.Metrics.ShedBusy.Load() != 1 {
		t.Fatalf("shed busy = %d, want 1", srv.Metrics.ShedBusy.Load())
	}
	c.Close()
	srv.Close()
}

func TestRelayGracefulDrain(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(relayL) }()

	held, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(10 * time.Second) }()
	if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool {
		return srv.State() == StateDraining
	}) {
		t.Fatal("server never entered draining")
	}

	// New dials are shed with GOING_AWAY while the drain is in progress...
	if _, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink"); !errors.Is(err, ErrRelayDraining) || !IsShed(err) {
		t.Fatalf("dial during drain: err = %v, want ErrRelayDraining, a shed", err)
	}
	if srv.Metrics.ShedGoingAway.Load() != 1 {
		t.Fatalf("shed goingaway = %d, want 1", srv.Metrics.ShedGoingAway.Load())
	}

	// ...while the established splice keeps working.
	if _, err := held.Write([]byte("ping")); err != nil {
		t.Fatalf("draining relay broke a live splice: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(held, buf); err != nil {
		t.Fatalf("draining relay broke a live splice: %v", err)
	}

	// Finishing the splice completes the drain cleanly.
	held.Close()
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("clean drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after last splice ended")
	}
	if srv.State() != StateClosed {
		t.Fatalf("state after drain = %d, want closed", srv.State())
	}
	select {
	case err := <-serveDone:
		if err != net.ErrClosed {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestRelayDrainTimeoutHardCloses(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)

	held, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	// The splice is never finished: the drain must hit its deadline,
	// hard-close it, and say so.
	if err := srv.Drain(50 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain with a stuck splice: err = %v, want ErrDrainTimeout", err)
	}
	if srv.State() != StateClosed {
		t.Fatalf("state after timed-out drain = %d, want closed", srv.State())
	}
	// The stuck splice was forcibly torn down: our end reads EOF/error.
	held.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := held.Read(make([]byte, 1)); err == nil {
		t.Fatal("splice survived a timed-out drain")
	}
}

func TestRelayIdleSpliceClosed(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay"), IdleTimeout: 50 * time.Millisecond})
	go srv.Serve(relayL)
	defer srv.Close()

	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Say nothing. The relay must reclaim the splice, not pin two
	// goroutines and a buffer on a peer that went quiet.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle splice was never torn down")
	}
	if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool {
		return srv.Metrics.IdleClosed.Load() == 1 && srv.ActiveSplices() == 0
	}) {
		t.Fatalf("idle teardown not recorded: idleClosed=%d active=%d",
			srv.Metrics.IdleClosed.Load(), srv.ActiveSplices())
	}
}

func TestRelayOneWayTrafficSurvivesIdleDeadline(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	got := make(chan int64, 1)
	sinkServer(t, sinkL, got)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay"), IdleTimeout: 60 * time.Millisecond})
	go srv.Serve(relayL)
	defer srv.Close()

	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}
	// A one-way bulk transfer: the sink never sends anything back, so the
	// downstream direction sees zero bytes for far longer than IdleTimeout.
	// Upstream progress must keep the whole splice alive.
	var sent int64
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		n, err := c.Write(make([]byte, 1024))
		if err != nil {
			t.Fatalf("one-way splice killed mid-transfer: %v", err)
		}
		sent += int64(n)
		time.Sleep(10 * time.Millisecond)
	}
	c.(interface{ CloseWrite() error }).CloseWrite()
	select {
	case n := <-got:
		if n != sent {
			t.Fatalf("sink got %d, sent %d", n, sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sink never finished")
	}
	if srv.Metrics.IdleClosed.Load() != 0 {
		t.Fatalf("idle teardown fired on a busy one-way splice (%d)",
			srv.Metrics.IdleClosed.Load())
	}
	c.Close()
	srv.Close()
}

// tempAcceptErr is the EMFILE-class transient accept failure: a net.Error
// that is Temporary but not a Timeout.
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempAcceptErr) Timeout() bool   { return false }
func (tempAcceptErr) Temporary() bool { return true }

// flakyListener fails its first n Accepts with tempAcceptErr.
type flakyListener struct {
	net.Listener
	remaining atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

func TestRelayServeRetriesTemporaryAcceptErrors(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	fl := &flakyListener{Listener: relayL}
	fl.remaining.Store(3)
	srv := New(Config{Dial: f.Dialer("relay")})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(fl) }()
	defer srv.Close()

	// Serve must ride out the transient failures and still answer dials.
	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	c.Close()
	if got := srv.Metrics.AcceptRetries.Load(); got != 3 {
		t.Fatalf("accept retries = %d, want 3", got)
	}
	select {
	case err := <-serveDone:
		t.Fatalf("Serve exited on a temporary accept error: %v", err)
	default:
	}
	srv.Close()
	if err := <-serveDone; err != net.ErrClosed {
		t.Fatalf("Serve returned %v", err)
	}
}
