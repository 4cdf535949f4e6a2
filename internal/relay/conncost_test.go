package relay

// What one relayed connection costs: heap allocations (client, relay and
// sink together, over in-memory lan pipes) and relay goroutines. Both pin the
// per-connection path (accept, preamble, dial, verdict, splice) to what its
// sockets need; DESIGN.md §10, "Per-connection cost".

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"incastproxy/internal/cliutil"
	"incastproxy/internal/lan"
)

// allocBudgetPerConn bounds the heap allocations of one relayed connection
// shaped like the relay_stream benchmark's op: budgetStreamBytes upstream in
// 64 KiB writes, then the sink's 8-byte count back downstream. Most of it is
// the sockets' own: the pipes, their segments, the target dial and its
// context.
const (
	allocBudgetPerConn = 64
	budgetStreamBytes  = 256 << 10
)

func TestRelayedConnAllocBudget(t *testing.T) {
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	// The sink drains each connection and answers with its byte count.
	go func() {
		for {
			c, err := sinkL.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				n, _ := io.Copy(io.Discard, c)
				var reply [8]byte
				binary.BigEndian.PutUint64(reply[:], uint64(n))
				c.Write(reply[:])
			}()
		}
	}()
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	dial := f.Dialer("client")
	chunk := make([]byte, 64<<10)
	var reply [9]byte
	// relayOne streams through one relayed connection and returns once the
	// sink's count is back and the downstream direction has ended. Nothing
	// here arms a timer, which would count against the budget; the test
	// binary's timeout bounds a hang.
	relayOne := func() {
		c, err := DialViaRelay(context.Background(), dial, "relay", "sink")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for sent := 0; sent < budgetStreamBytes; sent += len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		c.(interface{ CloseWrite() error }).CloseWrite()
		if n, err := io.ReadFull(c, reply[:]); n != 8 || err != io.ErrUnexpectedEOF {
			t.Fatalf("downstream carried %d bytes, %v; want 8, then EOF", n, err)
		}
		if n := binary.BigEndian.Uint64(reply[:8]); n != budgetStreamBytes {
			t.Fatalf("sink counted %d bytes, want %d", n, budgetStreamBytes)
		}
	}
	round := func(conns int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < conns; i++ {
			relayOne()
		}
		// The last handler may still be returning: count its allocations
		// in this round.
		if !cliutil.WaitUntil(5*time.Second, time.Millisecond, func() bool { return srv.ActiveSplices() == 0 }) {
			t.Fatalf("%d splices still active", srv.ActiveSplices())
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(conns)
	}

	round(50) // warm-up: the buffer pool, the fabric's maps, first-use runtime state
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		best = math.Min(best, round(200))
	}
	if best > allocBudgetPerConn {
		t.Fatalf("a relayed connection makes %.1f allocations, want <= %d", best, allocBudgetPerConn)
	}
	t.Logf("%.1f allocations per relayed connection (budget %d)", best, allocBudgetPerConn)
}

// An idle splice asks isDeadline once per idle tick per direction for its
// whole life, so the answer must cost nothing, for a real socket's wrapped
// os.ErrDeadlineExceeded and for the lan pipe's own timeout alike.
func TestIsDeadlineAllocatesNothing(t *testing.T) {
	a, b := lan.Pipe(lan.PipeConfig{}, "a", "b")
	defer a.Close()
	defer b.Close()
	a.SetReadDeadline(time.Now())
	_, lanTimeout := a.Read(make([]byte, 1))

	sockTimeout := &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"socket", sockTimeout, true},
		{"wrapped socket", fmt.Errorf("relay: %w", sockTimeout), true},
		{"bare os", os.ErrDeadlineExceeded, true},
		{"lan", lanTimeout, true},
		{"wrapped lan", fmt.Errorf("relay: %w", lanTimeout), true},
		{"eof", io.EOF, false},
		{"closed", &net.OpError{Op: "read", Net: "tcp", Err: net.ErrClosed}, false},
		{"nil", nil, false},
	} {
		if got := isDeadline(tc.err); got != tc.want {
			t.Errorf("%s: isDeadline(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { isDeadline(tc.err) }); allocs != 0 {
			t.Errorf("%s: isDeadline allocates %.0f times per call, want 0", tc.name, allocs)
		}
	}
}

// TestHeldSplicesCostTwoGoroutinesEach holds k splices open and counts the
// relay goroutines they add: the handler, which copies upstream itself, and
// one downstream copier.
func TestHeldSplicesCostTwoGoroutinesEach(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	const k = 8
	f := lan.NewFabric(lan.PipeConfig{})
	sinkL, _ := f.Listen("sink")
	defer sinkL.Close()
	// The sink reports each connection's first byte, then drains it.
	first := make(chan struct{}, k)
	go func() {
		for {
			c, err := sinkL.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var b [1]byte
				if _, err := io.ReadFull(c, b[:]); err == nil {
					first <- struct{}{}
				}
				io.Copy(io.Discard, c)
			}()
		}
	}()
	relayL, _ := f.Listen("relay")
	srv := New(Config{Dial: f.Dialer("relay")})
	go srv.Serve(relayL)
	defer srv.Close()

	base := connGoroutines()
	held := make([]net.Conn, 0, k)
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < k; i++ {
		c, err := DialViaRelay(context.Background(), f.Dialer("client"), "relay", "sink")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
		if _, err := c.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// A byte at the sink proves its splice is copying.
	for i := 0; i < k; i++ {
		select {
		case <-first:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d splices delivered a byte", i, k)
		}
	}
	var added int
	if !cliutil.WaitUntil(2*time.Second, time.Millisecond, func() bool {
		added = connGoroutines() - base
		return added == 2*k
	}) {
		t.Fatalf("%d held splices run %d relay goroutines, want %d", k, added, 2*k)
	}
}

// connGoroutines counts the goroutines serving admitted connections: the
// handlers and the copiers their splices start.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "relay.(*Server).handle") || strings.Contains(g, "relay.(*Server).splice") {
			count++
		}
	}
	return count
}
