// lint:virtual-time
// (pragma: opts this package into the wallclock analyzer — no wall-clock
// reads in non-test sources; see internal/lint and DESIGN.md §12)

// Package obs is the unified observability layer: a zero-dependency
// (stdlib-only) metrics registry, a structured event tracer, and a live
// debug/introspection surface shared by the simulator, the transport, and
// the real-host relay substrate.
//
// The three pieces and their contracts:
//
//   - Registry: typed counters, gauges, and fixed-bucket histograms with
//     cheap atomic hot-path recording, plus lazy "collector" funcs that pull
//     values already tracked elsewhere (queue stats, sender stats) only at
//     snapshot time — zero hot-path cost. Snapshots are sorted by name, so
//     the same run state always serializes to the same bytes.
//
//   - Tracer: an append-only, concurrency-safe log of events (flow
//     lifecycle, queue trims/marks/drops, fault windows, cwnd trajectories,
//     causal flow spans) exportable as Chrome trace-event JSON (loadable in
//     Perfetto or chrome://tracing) and as CSV. Timestamps come either from
//     the caller (virtual time, the simulator) or from a clock injected via
//     NewTracerWithClock (live paths); both produce the same export format,
//     so a sim trace and a relay soak trace open in the same viewer. Span
//     contexts (span.go) are derived with rng.DeriveSeed, so seeded-run
//     traces replay with identical IDs.
//
//   - Debug surface: an http.ServeMux with net/http/pprof, a Prometheus
//     text /metrics endpoint, and a JSON snapshot, served by relayd and
//     proxybench under -debug-addr.
//
// Determinism contract: nothing in this package reads the wall clock or
// any other ambient nondeterminism on a recording path. Timestamps always
// come from the caller (simulated time) or from a caller-injected clock
// (live wall-time paths own that choice). A seeded run instrumented through
// this package therefore produces byte-identical snapshots and trace
// exports on every execution — the property the determinism tests in
// internal/workload assert, and the property that makes a metrics snapshot
// trustworthy before/after evidence for optimization work.
//
// All write paths are nil-receiver safe: a nil *Registry hands out nil
// instruments, and recording on a nil instrument is a no-op, so packages
// can instrument unconditionally and let the caller decide whether
// telemetry exists.
package obs
