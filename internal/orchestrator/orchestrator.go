// Package orchestrator addresses the paper's future work #3: selecting
// proxy servers across concurrent incasts. It provides
//
//   - a benefit predictor deciding whether an incast should be proxied at
//     all (Figure 2 Right shows small incasts gain nothing; Figure 3 shows
//     gains require a real intra/inter latency gap);
//
//   - a centralized selector with a global load view ("selected by a
//     global orchestrator, which requires frequent updates on proxy
//     status");
//
//   - a decentralized selector based on sampled probes ("in a
//     decentralized manner with repeated trials by individual incast"),
//     implemented as power-of-d-choices.
package orchestrator

import (
	"errors"
	"fmt"
	"sync"

	"incastproxy/internal/model"
	"incastproxy/internal/obs"
	"incastproxy/internal/rng"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// Proxy describes one registered proxy server.
type Proxy struct {
	Ref workload.HostRef
	// Capacity is the proxy NIC rate; assignments are tracked against it.
	Capacity units.BitRate
}

// Request describes an incast asking for a routing decision.
type Request struct {
	Degree   int
	Bytes    units.ByteSize
	SenderDC int

	// InterRTT is the sender->receiver round-trip; IntraRTT the
	// sender->proxy round-trip.
	InterRTT, IntraRTT units.Duration
	// Rate is the bottleneck link rate; BufferBytes the receiver
	// down-ToR buffer.
	Rate        units.BitRate
	BufferBytes units.ByteSize
	// Scheme is the proxy design to use when proxying (default
	// streamlined).
	Scheme workload.Scheme
}

// Decision is the orchestrator's answer.
type Decision struct {
	UseProxy bool
	Proxy    workload.HostRef
	Scheme   workload.Scheme
	Reason   string
	// Probes counts remote load queries performed (decentralized mode's
	// communication overhead).
	Probes int
	// Assignment identifies this placement for failover bookkeeping
	// (zero when UseProxy is false). Pass it to Release when the incast
	// completes; Failover reuses it to re-home stranded incasts.
	Assignment PlacementID
}

type proxyState struct {
	info      Proxy
	active    int
	committed units.ByteSize
	down      bool
}

// Orchestrator tracks proxies and assigns incasts to them.
type Orchestrator struct {
	mu       sync.Mutex
	proxies  map[workload.HostRef]*proxyState
	order    []workload.HostRef // stable iteration for determinism
	src      *rng.Source
	nextID   PlacementID
	assigned map[PlacementID]*Placement

	// tracer, when set, records each routing decision as an instant on
	// the "orchestrator" decision-timeline track (see SetTracer).
	tracer *obs.Tracer

	// met holds registry instruments (see Instrument). The fields stay
	// nil until Instrument is called; nil instruments record nothing, so
	// the hot paths update them unconditionally.
	met struct {
		decisions, proxied, direct, probes *obs.Counter
		failovers, rehomed                 *obs.Counter
		markDowns, markUps                 *obs.Counter
	}
}

// Instrument registers the orchestrator's activity counters and live
// assignment gauges under orchestrator_* names. Call once, before use.
func (o *Orchestrator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	o.met.decisions = reg.Counter("orchestrator_decisions_total")
	o.met.proxied = reg.Counter("orchestrator_proxied_total")
	o.met.direct = reg.Counter("orchestrator_direct_total")
	o.met.probes = reg.Counter("orchestrator_probes_total")
	o.met.failovers = reg.Counter("orchestrator_failovers_total")
	o.met.rehomed = reg.Counter("orchestrator_rehomed_total")
	o.met.markDowns = reg.Counter("orchestrator_mark_down_total")
	o.met.markUps = reg.Counter("orchestrator_mark_up_total")
	reg.GaugeFunc("orchestrator_assignments", func() int64 {
		o.mu.Lock()
		defer o.mu.Unlock()
		return int64(len(o.assigned))
	})
	reg.GaugeFunc("orchestrator_proxies_down", func() int64 {
		o.mu.Lock()
		defer o.mu.Unlock()
		var n int64
		for _, st := range o.proxies {
			if st.down {
				n++
			}
		}
		return n
	})
}

// SetTracer attaches a tracer: every Decide/DecideDecentralized outcome
// becomes an instant event on the "orchestrator" track (args: use_proxy,
// reason, probes), so placement decisions interleave with the control
// plane's steer timeline and the data plane's flow spans. Call before use.
func (o *Orchestrator) SetTracer(tr *obs.Tracer) { o.tracer = tr }

// traceDecision records one routing outcome on the decision timeline.
func (o *Orchestrator) traceDecision(mode string, d Decision) {
	if o.tracer == nil {
		return
	}
	use := "false"
	if d.UseProxy {
		use = "true"
	}
	o.tracer.Instant(o.tracer.Now(), "orchestrator", "decide."+mode, 0,
		obs.Arg{Key: "use_proxy", Val: use},
		obs.Arg{Key: "reason", Val: d.Reason},
		obs.Arg{Key: "probes", Val: fmt.Sprintf("%d", d.Probes)})
}

// Errors returned by selection.
var (
	ErrNoProxies = errors.New("orchestrator: no proxy registered in the sending datacenter")
)

// New returns an orchestrator; seed drives decentralized sampling.
func New(seed int64) *Orchestrator {
	return &Orchestrator{
		proxies:  make(map[workload.HostRef]*proxyState),
		src:      rng.New(seed),
		assigned: make(map[PlacementID]*Placement),
	}
}

// Register adds (or replaces) a proxy.
func (o *Orchestrator) Register(p Proxy) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, exists := o.proxies[p.Ref]; !exists {
		o.order = append(o.order, p.Ref)
	}
	o.proxies[p.Ref] = &proxyState{info: p}
}

// Load reports a proxy's active incast count and committed bytes.
func (o *Orchestrator) Load(ref workload.HostRef) (active int, committed units.ByteSize, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.proxies[ref]
	if !ok {
		return 0, 0, false
	}
	return st.active, st.committed, true
}

// WorthProxying applies the paper's empirical benefit conditions and
// returns a human-readable reason either way.
func WorthProxying(req Request) (bool, string) {
	// Figure 3: the latency saving appears once the inter-DC path is
	// much slower than the intra-DC one (>= 100 us links vs 1 us links,
	// i.e. roughly two orders of magnitude in RTT).
	if req.IntraRTT > 0 && req.InterRTT < 10*req.IntraRTT {
		return false, fmt.Sprintf("latency gap too small (inter %v < 10x intra %v)",
			req.InterRTT, req.IntraRTT)
	}
	// Figure 2 (Right): an incast that fits in the receiver down-ToR
	// buffer loses nothing in the first RTT, so the feedback delay does
	// not matter and "there is no benefit using a proxy". The analytical
	// model answers whether it fits: the same first-burst overflow that
	// puts PredictICT's baseline in its overflow regime.
	overflow := model.Predict(modelParams(workload.Baseline, req)).LossBytes
	if overflow <= 0 {
		return false, "no first-RTT loss expected (burst fits the receiver buffer)"
	}
	return true, fmt.Sprintf("first-RTT burst overflows the receiver buffer by %v", overflow)
}

// Decide picks a proxy with the full global view: the least-loaded (by
// committed bytes, then active incasts) registered proxy in the sending
// datacenter.
func (o *Orchestrator) Decide(req Request) (Decision, error) {
	o.met.decisions.Inc()
	if ok, reason := WorthProxying(req); !ok {
		o.met.direct.Inc()
		dec := Decision{UseProxy: false, Reason: reason}
		o.traceDecision("global", dec)
		return dec, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var best *proxyState
	probes := 0
	for _, ref := range o.order {
		st := o.proxies[ref]
		if st.info.Ref.DC != req.SenderDC || st.down {
			continue
		}
		probes++
		if best == nil || less(st, best) {
			best = st
		}
	}
	if best == nil {
		return Decision{}, ErrNoProxies
	}
	id := o.assign(best, req)
	o.met.proxied.Inc()
	o.met.probes.Add(uint64(probes))
	dec := Decision{
		UseProxy:   true,
		Proxy:      best.info.Ref,
		Scheme:     schemeOf(req),
		Reason:     "least-loaded proxy (global view)",
		Probes:     probes,
		Assignment: id,
	}
	o.traceDecision("global", dec)
	return dec, nil
}

// DecideDecentralized samples `trials` random proxies in the sending DC and
// picks the least loaded of the sample — the "repeated trials by individual
// incast" alternative, trading probe overhead for selection quality.
func (o *Orchestrator) DecideDecentralized(req Request, trials int) (Decision, error) {
	o.met.decisions.Inc()
	if ok, reason := WorthProxying(req); !ok {
		o.met.direct.Inc()
		dec := Decision{UseProxy: false, Reason: reason}
		o.traceDecision("sampled", dec)
		return dec, nil
	}
	if trials < 1 {
		trials = 2
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var candidates []*proxyState
	for _, ref := range o.order {
		if st := o.proxies[ref]; st.info.Ref.DC == req.SenderDC && !st.down {
			candidates = append(candidates, st)
		}
	}
	if len(candidates) == 0 {
		return Decision{}, ErrNoProxies
	}
	var best *proxyState
	probes := 0
	for i := 0; i < trials; i++ {
		st := candidates[o.src.Intn(len(candidates))]
		probes++
		if best == nil || less(st, best) {
			best = st
		}
	}
	id := o.assign(best, req)
	o.met.proxied.Inc()
	o.met.probes.Add(uint64(probes))
	dec := Decision{
		UseProxy:   true,
		Proxy:      best.info.Ref,
		Scheme:     schemeOf(req),
		Reason:     fmt.Sprintf("best of %d sampled proxies (decentralized)", trials),
		Probes:     probes,
		Assignment: id,
	}
	o.traceDecision("sampled", dec)
	return dec, nil
}

// Complete releases an assignment made by Decide/DecideDecentralized.
func (o *Orchestrator) Complete(ref workload.HostRef, bytes units.ByteSize) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.proxies[ref]
	if !ok {
		return
	}
	if st.active > 0 {
		st.active--
	}
	st.committed -= bytes
	if st.committed < 0 {
		st.committed = 0
	}
}

func (o *Orchestrator) assign(st *proxyState, req Request) PlacementID {
	st.active++
	st.committed += req.Bytes
	o.nextID++
	id := o.nextID
	o.assigned[id] = &Placement{ID: id, Proxy: st.info.Ref, Req: req}
	return id
}

func (o *Orchestrator) unassign(a *Placement) {
	if st, ok := o.proxies[a.Proxy]; ok {
		if st.active > 0 {
			st.active--
		}
		st.committed -= a.Req.Bytes
		if st.committed < 0 {
			st.committed = 0
		}
	}
	delete(o.assigned, a.ID)
}

func less(a, b *proxyState) bool {
	if a.committed != b.committed {
		return a.committed < b.committed
	}
	return a.active < b.active
}

func schemeOf(req Request) workload.Scheme {
	if req.Scheme == workload.ProxyNaive {
		return workload.ProxyNaive
	}
	return workload.ProxyStreamlined
}

// modelParams maps a routing Request onto the analytical model's parameter
// set: the direct path is the sender->receiver long haul, the proxy up-leg
// the sender->proxy loop, and the relay's down leg rides the same long-haul
// path the direct route uses. Zero Rate/Buffer fields fall back to the §4.1
// fabric defaults inside the model, matching the simulator's spec defaults.
func modelParams(scheme workload.Scheme, req Request) model.Params {
	if scheme != workload.Baseline {
		scheme = schemeOf(req)
	}
	return model.Params{
		Scheme:       scheme,
		Degree:       req.Degree,
		TotalBytes:   req.Bytes,
		DirectRTT:    req.InterRTT,
		ProxyUpRTT:   req.IntraRTT,
		ProxyDownRTT: req.InterRTT,
		Rate:         req.Rate,
		Buffer:       req.BufferBytes,
	}
}

// PredictICT estimates one routing's incast completion time by delegating to
// the calibrated analytical model (internal/model) — the same closed form
// the fast figure sweeps use and the validation tests pin against the
// packet-level simulator per regime.
func PredictICT(scheme workload.Scheme, req Request) units.Duration {
	return model.PredictICT(modelParams(scheme, req))
}
