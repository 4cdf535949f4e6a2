package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"incastproxy/internal/cliutil"
	"incastproxy/internal/lan"
	"incastproxy/internal/obs"
	"incastproxy/internal/wire"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t testing.TB, l net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
}

// sinkServer accepts connections and counts received bytes per conn.
func sinkServer(t testing.TB, l net.Listener, got chan<- int64) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				n, _ := io.Copy(io.Discard, c)
				got <- n
			}()
		}
	}()
}

func TestRelayOverRealTCP(t *testing.T) {
	// Target echo server on localhost.
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	echoServer(t, tl)

	// Relay on localhost.
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	go srv.Serve(rl)
	defer srv.Close()

	c, err := DialViaRelay(context.Background(), nil, rl.Addr().String(), tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	msg := bytes.Repeat([]byte("relay-me."), 1000)
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch through relay")
	}
	if srv.Metrics.AcceptedConns.Load() != 1 {
		t.Fatalf("accepted = %d", srv.Metrics.AcceptedConns.Load())
	}
}

func TestRelayOverEmulatedWAN(t *testing.T) {
	// DC0 hosts the client and the relay; DC1 hosts the sink. Cross-DC
	// paths carry 20ms one-way latency.
	f := lan.NewFabric(lan.PipeConfig{})
	f.SetPathFunc(func(from, to lan.Addr) lan.PipeConfig {
		crossDC := (len(from) > 2 && len(to) > 2) && from[:3] != to[:3]
		if crossDC {
			return lan.PipeConfig{Latency: 20 * time.Millisecond}
		}
		return lan.PipeConfig{Latency: 50 * time.Microsecond}
	})

	sinkL, err := f.Listen("dc1/sink")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1)
	sinkServer(t, sinkL, got)

	relayL, err := f.Listen("dc0/relay")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Dial: f.Dialer("dc0/relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	c, err := DialViaRelay(context.Background(), f.Dialer("dc0/client"), "dc0/relay", "dc1/sink")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100_000)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	select {
	case n := <-got:
		if n != int64(len(payload)) {
			t.Fatalf("sink got %d, want %d", n, len(payload))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sink never finished")
	}
	if srv.Metrics.BytesUpstream.Load() != uint64(len(payload)) {
		t.Fatalf("upstream bytes = %d", srv.Metrics.BytesUpstream.Load())
	}
	c.Close()
}

func TestRelayDialErrorPropagates(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	_, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "missing-target")
	if err == nil {
		t.Fatal("dial to missing target must fail")
	}
	if srv.Metrics.DialErrors.Load() != 1 {
		t.Fatalf("dial errors = %d", srv.Metrics.DialErrors.Load())
	}
}

func TestRelayPolicyRefusal(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	f.Listen("secret")
	relayL, _ := f.Listen("relay")
	srv := New(Config{
		Dial:        f.Dialer("relay"),
		AllowTarget: func(addr string) bool { return addr != "secret" },
	})
	go srv.Serve(relayL)
	defer srv.Close()

	if _, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "secret"); err == nil {
		t.Fatal("policy-refused target must fail")
	}
}

func TestRelayBadPreamble(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	c, err := f.Dial("client", "relay")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send a DATA header instead of DIAL.
	c.Write(wire.Marshal(wire.Header{Kind: wire.KindData, Length: 4}))
	hdr := make([]byte, wire.HeaderSize)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatal(err)
	}
	h, err := wire.Parse(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != wire.KindError {
		t.Fatalf("kind = %v, want ERROR", h.Kind)
	}
}

func TestRelaySlowPreambleTimedOut(t *testing.T) {
	// A client sending a partial preamble and then going silent must not
	// hold a handler goroutine forever (slowloris on the accept path).
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{PreambleTimeout: 50 * time.Millisecond})
	go srv.Serve(rl)
	defer srv.Close()

	c, err := net.Dial("tcp", rl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One byte short of a header, then silence.
	c.Write(make([]byte, wire.HeaderSize-1))

	// The relay must give up and tear the connection down: our read ends
	// with a KindError frame or a plain close, promptly.
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, c)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("relay kept the half-preamble connection open")
	}
	if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool {
		return srv.Metrics.ActiveConns.Load() == 0
	}) {
		t.Fatalf("handler leaked: active = %d", srv.Metrics.ActiveConns.Load())
	}
}

func TestRelayConcurrentConnections(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	got := make(chan int64, 32)
	sinkServer(t, sinkL, got)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	const conns = 16
	const per = 10_000
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialViaRelay(context.Background(),
				f.Dialer(lan.Addr(fmt.Sprintf("client%d", i))), "relay", "sink")
			if err != nil {
				t.Error(err)
				return
			}
			c.Write(make([]byte, per))
			c.(interface{ CloseWrite() error }).CloseWrite()
			c.Close()
		}(i)
	}
	wg.Wait()
	var total int64
	for i := 0; i < conns; i++ {
		select {
		case n := <-got:
			total += n
		case <-time.After(10 * time.Second):
			t.Fatal("missing sink completion")
		}
	}
	if total != conns*per {
		t.Fatalf("total = %d, want %d", total, conns*per)
	}
	if srv.Metrics.AcceptedConns.Load() != conns {
		t.Fatalf("accepted = %d", srv.Metrics.AcceptedConns.Load())
	}
	// The handler's deferred ActiveConns decrement races the sink's byte
	// count: poll instead of asserting instantly.
	if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool {
		return srv.Metrics.ActiveConns.Load() == 0
	}) {
		t.Fatalf("active = %d after drain", srv.Metrics.ActiveConns.Load())
	}
}

func TestRelayCloseUnblocksEverything(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	echoServer(t, sinkL)
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(relayL) }()

	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != net.ErrClosed {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// A KindError reply's Length is the peer's claim. A faulty or hostile relay
// that claims 2 GiB and hangs up must cost the client neither the allocation
// nor a wait: the read is capped at wire.MaxErrorLen and the short read is
// reported.
func TestDialViaRelayCapsErrorReply(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	l, err := f.Listen("relay")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := wire.ReadDial(c); err != nil {
			t.Errorf("fake relay: %v", err)
		}
		reply := wire.AppendHeader(nil, wire.Header{Kind: wire.KindError, Length: 1 << 31})
		c.Write(append(reply, "boom"...))
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DialViaRelay(ctx, f.Dialer("client"), "relay", "target:1")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the short read reported with what did arrive", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("dial allocated %d bytes for a reply that claimed %d", grew, uint32(1<<31))
	}
}

// A Server with a Registry exports exactly the series it writes: what
// relayd's -debug-addr endpoint lists.
func TestServerRegistersOnlyServerSeries(t *testing.T) {
	reg := obs.NewRegistry()
	New(Config{Registry: reg})
	snap := reg.Snapshot()
	seen := map[string]bool{}
	for _, v := range append(snap.Counters, snap.Gauges...) {
		name, _, _ := strings.Cut(v.Name, "{")
		seen[name] = true
	}
	for _, h := range snap.Histograms {
		seen[h.Name] = true
	}
	got := make([]string, 0, len(seen))
	for name := range seen {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{
		"relay_accept_retries_total",
		"relay_accepted_conns_total",
		"relay_active_conns",
		"relay_bytes_downstream_total",
		"relay_bytes_upstream_total",
		"relay_dial_errors_total",
		"relay_idle_closed_total",
		"relay_shed_busy_total",
		"relay_shed_goingaway_total",
		"relay_splice_duration_us",
		"relay_state",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("registered series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A Server given no Registry still records into one: a relayed connection is
// one observation of the splice-lifetime histogram in Server.Registry().
func TestSpliceLifetimeInDefaultRegistry(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, err := f.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1)
	sinkServer(t, sinkL, got)
	relayL, err := f.Listen("relay")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)

	c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("splice")); err != nil {
		t.Fatal(err)
	}
	c.(interface{ CloseWrite() error }).CloseWrite()
	if n := <-got; n != 6 {
		t.Fatalf("sink got %d bytes, want 6", n)
	}
	c.Close()
	srv.Close() // returns once the splice has ended and been recorded

	hs := srv.Registry().Snapshot().Histograms
	if len(hs) != 1 || hs[0].Name != "relay_splice_duration_us" || hs[0].Count != 1 {
		t.Fatalf("histograms = %+v, want one observation of relay_splice_duration_us", hs)
	}
}

func TestDialViaRelayConnectError(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	if _, err := DialViaRelay(context.Background(), f.Dialer("c"), "nobody", "x"); err == nil {
		t.Fatal("dialing a missing relay must fail")
	}
}
