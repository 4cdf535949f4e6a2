// Command relayd runs the real TCP connection-splitting relay (the naive
// proxy design over kernel sockets) and companion load-generation modes.
//
// Deploy the relay in the sending datacenter; point senders at it with the
// wire dial preamble (see internal/relay's DialViaRelay, or -mode source
// here).
//
// Usage:
//
//	relayd -mode proxy  -listen :7000                      # the relay
//	relayd -mode proxy  -listen :7000 -max-conns 512 -accept-rate 2000 \
//	       -idle-timeout 2m -drain-timeout 30s             # hardened relay
//	relayd -mode proxy  -listen :7000 -log-json \
//	       -trace trace.json -metrics-dump metrics.json    # observable relay
//	relayd -mode sink   -listen :7001                      # byte sink
//	relayd -mode source -relay host:7000 -target host:7001 -size 100MB -conns 4
//	relayd -mode source -target host:7001 -size 100MB      # direct (no relay)
//
// In proxy mode SIGTERM (or Ctrl-C) starts a graceful drain: established
// splices finish, new dials are shed with GOING_AWAY, and the process exits
// 0 on a clean drain or 4 if the -drain-timeout deadline hard-closed
// stragglers. A second signal hard-stops immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"incastproxy/internal/cliutil"
	"incastproxy/internal/obs"
	"incastproxy/internal/relay"
)

const prog cliutil.Prog = "relayd"

func main() {
	var (
		mode    = flag.String("mode", "proxy", "proxy | sink | source")
		listen  = flag.String("listen", ":7000", "listen address (proxy, sink)")
		relayAt = flag.String("relay", "", "relay address (source; empty = direct)")
		target  = flag.String("target", "", "target address (source)")
		sizeRaw = flag.String("size", "100MB", "bytes per connection (source)")
		conns   = flag.Int("conns", 4, "concurrent connections (source) — the incast degree")
		allowed = flag.String("allow-prefix", "", "restrict relay targets to this address prefix")
		debugAt = flag.String("debug-addr", "", "serve /metrics + /debug/pprof on this address (proxy mode)")

		maxConns      = flag.Int("max-conns", 0, "max concurrent relayed connections; extra dials shed with BUSY (proxy; 0 = unlimited)")
		acceptRate    = flag.Float64("accept-rate", 0, "admissions per second; excess shed with BUSY (proxy; 0 = unlimited)")
		acceptBurst   = flag.Int("accept-burst", 0, "token-bucket depth for -accept-rate (proxy; default 8)")
		idleTimeout   = flag.Duration("idle-timeout", 0, "tear down a splice idle in both directions this long (proxy; 0 = never)")
		spliceTimeout = flag.Duration("splice-timeout", 0, "cap a splice's total lifetime (proxy; 0 = unlimited)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT (proxy)")

		logJSON     = flag.Bool("log-json", false, "log as JSON lines instead of text")
		metricsDump = flag.String("metrics-dump", "", "write the final metrics snapshot to this file as JSON on exit (proxy)")
		tracePath   = flag.String("trace", "", "record a Chrome trace of every relayed flow and write it to this file on exit (proxy)")
	)
	flag.Parse()

	switch *mode {
	case "proxy":
		runProxy(proxyOpts{
			listen:      *listen,
			allowPrefix: *allowed,
			debugAddr:   *debugAt,
			cfg: relay.Config{
				MaxConns:      *maxConns,
				AcceptRate:    *acceptRate,
				AcceptBurst:   *acceptBurst,
				IdleTimeout:   *idleTimeout,
				SpliceTimeout: *spliceTimeout,
				Logger:        cliutil.NewLogger(*logJSON),
			},
			drainTimeout: *drainTimeout,
			metricsDump:  *metricsDump,
			tracePath:    *tracePath,
		})
	case "sink":
		runSink(*listen)
	case "source":
		runSource(*relayAt, *target, *sizeRaw, *conns)
	default:
		prog.Fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// Exit codes (proxy mode): 0 = clean graceful drain, 1 = fatal error,
// 4 = drain hit its deadline and in-flight splices were hard-closed.
const exitDrainTimeout = 4

type proxyOpts struct {
	listen       string
	allowPrefix  string
	debugAddr    string
	cfg          relay.Config
	drainTimeout time.Duration
	metricsDump  string
	tracePath    string
}

func runProxy(o proxyOpts) {
	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		prog.Fatal(err)
	}
	cfg := o.cfg
	log := cfg.Logger
	cfg.Registry = obs.NewRegistry()
	if o.tracePath != "" {
		cfg.Tracer = obs.NewTracerWithClock(cliutil.WallClock(time.Now))
	}
	if o.allowPrefix != "" {
		cfg.AllowTarget = func(addr string) bool { return strings.HasPrefix(addr, o.allowPrefix) }
	}
	srv := relay.New(cfg)
	log.Info("relayd: proxy listening", "addr", l.Addr().String(),
		"max_conns", cfg.MaxConns, "accept_rate", cfg.AcceptRate)
	if o.debugAddr != "" {
		_, dl, err := obs.ServeDebug(o.debugAddr, cfg.Registry)
		if err != nil {
			prog.Fatal(err)
		}
		log.Info("relayd: debug endpoint up",
			"metrics", fmt.Sprintf("http://%v/metrics", dl.Addr()),
			"pprof", fmt.Sprintf("http://%v/debug/pprof/", dl.Addr()))
	}

	// dump flushes the -metrics-dump and -trace files; every exit path
	// (clean drain, drain timeout, hard stop) runs it so the observability
	// artifacts survive however the process goes down.
	dump := func() {
		if err := cliutil.DumpMetrics(o.metricsDump, "relayd -mode proxy", 0, cfg.Registry); err != nil {
			log.Error("relayd: metrics dump failed", "err", err)
		}
		if err := cliutil.DumpTrace(o.tracePath, cfg.Tracer); err != nil {
			log.Error("relayd: trace dump failed", "err", err)
		}
	}

	go reportMetrics(srv, log)
	sigSeen := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		ch := make(chan os.Signal, 2)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig := <-ch
		log.Info("relayd: draining", "signal", sig.String(), "deadline", o.drainTimeout.String())
		close(sigSeen)
		go func() {
			<-ch
			log.Warn("relayd: second signal: hard stop")
			srv.Close()
			dump()
			os.Exit(130)
		}()
		drained <- srv.Drain(o.drainTimeout)
	}()
	if err := srv.Serve(l); err != nil && err != net.ErrClosed {
		prog.Fatal(err)
	}
	// Serve only returns ErrClosed after a signal-initiated drain (or hard
	// stop) began; wait for the drain's verdict rather than racing it.
	select {
	case <-sigSeen:
		err := <-drained
		dump()
		if err != nil {
			log.Error("relayd: drain deadline exceeded", "err", err)
			os.Exit(exitDrainTimeout)
		}
		log.Info("relayd: drained cleanly")
	default:
		dump()
	}
}

func reportMetrics(srv *relay.Server, log *slog.Logger) {
	for range time.Tick(5 * time.Second) {
		log.Info("relayd: stats",
			"conns", srv.Metrics.AcceptedConns.Load(), "active", srv.Metrics.ActiveConns.Load(),
			"up_bytes", srv.Metrics.BytesUpstream.Load(), "down_bytes", srv.Metrics.BytesDownstr.Load(),
			"dial_errs", srv.Metrics.DialErrors.Load(), "shed_busy", srv.Metrics.ShedBusy.Load(),
			"shed_goaway", srv.Metrics.ShedGoingAway.Load(), "idle_closed", srv.Metrics.IdleClosed.Load())
	}
}

func runSink(listen string) {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		prog.Fatal(err)
	}
	prog.Printf("relayd: sink listening on %v\n", l.Addr())
	for {
		c, err := l.Accept()
		if err != nil {
			prog.Fatal(err)
		}
		go func() {
			defer c.Close()
			start := time.Now()
			n, _ := io.Copy(io.Discard, c)
			el := time.Since(start)
			rate := float64(n) * 8 / el.Seconds() / 1e9
			prog.Printf("relayd: sink drained %d bytes in %v (%.2f Gbps) from %v\n",
				n, el.Round(time.Millisecond), rate, c.RemoteAddr())
		}()
	}
}

func runSource(relayAddr, target, sizeRaw string, conns int) {
	if target == "" {
		prog.Fatal(fmt.Errorf("source mode needs -target"))
	}
	size, err := cliutil.ParseSize(sizeRaw)
	if err != nil {
		prog.Fatal(err)
	}
	per := int64(size) / int64(conns)

	var wg sync.WaitGroup
	var failed atomic.Int64
	var pushed atomic.Int64
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c net.Conn
			var err error
			if relayAddr != "" {
				c, err = relay.DialViaRelay(context.Background(), nil, relayAddr, target)
			} else {
				c, err = net.Dial("tcp", target)
			}
			if err != nil {
				_, _ = fmt.Fprintf(os.Stderr, "relayd: conn %d: %v\n", i, err)
				failed.Add(1)
				return
			}
			defer c.Close()
			buf := make([]byte, 256<<10)
			var sent int64
			for sent < per {
				n := int64(len(buf))
				if per-sent < n {
					n = per - sent
				}
				wn, err := c.Write(buf[:n])
				sent += int64(wn)
				if err != nil {
					_, _ = fmt.Fprintf(os.Stderr, "relayd: conn %d write: %v\n", i, err)
					failed.Add(1)
					break
				}
			}
			pushed.Add(sent)
			if cw, ok := c.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			}
		}(i)
	}
	wg.Wait()
	el := time.Since(start)
	rate := float64(pushed.Load()) * 8 / el.Seconds() / 1e9
	route := "direct"
	if relayAddr != "" {
		route = "via relay " + relayAddr
	}
	if n := failed.Load(); n > 0 {
		prog.Fatal(fmt.Errorf("%d/%d conns failed; pushed %d of %v bytes %s",
			n, conns, pushed.Load(), size, route))
	}
	prog.Printf("relayd: pushed %v over %d conns %s in %v (%.2f Gbps aggregate)\n",
		size, conns, route, el.Round(time.Millisecond), rate)
}
