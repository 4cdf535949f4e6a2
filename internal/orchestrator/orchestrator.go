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
}

type proxyState struct {
	info      Proxy
	active    int
	committed units.ByteSize
}

// Orchestrator tracks proxies and assigns incasts to them.
type Orchestrator struct {
	mu      sync.Mutex
	proxies map[workload.HostRef]*proxyState
	order   []workload.HostRef // stable iteration for determinism
	src     *rng.Source
}

// Errors returned by selection.
var (
	ErrNoProxies = errors.New("orchestrator: no proxy registered in the sending datacenter")
)

// New returns an orchestrator; seed drives decentralized sampling.
func New(seed int64) *Orchestrator {
	return &Orchestrator{
		proxies: make(map[workload.HostRef]*proxyState),
		src:     rng.New(seed),
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
	if ok, reason := WorthProxying(req); !ok {
		return Decision{UseProxy: false, Reason: reason}, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var best *proxyState
	probes := 0
	for _, ref := range o.order {
		st := o.proxies[ref]
		if st.info.Ref.DC != req.SenderDC {
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
	assign(best, req)
	return Decision{
		UseProxy: true,
		Proxy:    best.info.Ref,
		Scheme:   schemeOf(req),
		Reason:   "least-loaded proxy (global view)",
		Probes:   probes,
	}, nil
}

// DecideDecentralized samples `trials` random proxies in the sending DC and
// picks the least loaded of the sample — the "repeated trials by individual
// incast" alternative, trading probe overhead for selection quality.
func (o *Orchestrator) DecideDecentralized(req Request, trials int) (Decision, error) {
	if ok, reason := WorthProxying(req); !ok {
		return Decision{UseProxy: false, Reason: reason}, nil
	}
	if trials < 1 {
		trials = 2
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var candidates []*proxyState
	for _, ref := range o.order {
		if st := o.proxies[ref]; st.info.Ref.DC == req.SenderDC {
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
	assign(best, req)
	return Decision{
		UseProxy: true,
		Proxy:    best.info.Ref,
		Scheme:   schemeOf(req),
		Reason:   fmt.Sprintf("best of %d sampled proxies (decentralized)", trials),
		Probes:   probes,
	}, nil
}

// Complete releases an assignment made by Decide/DecideDecentralized: call it
// with the decision's proxy and the request's bytes when the incast finishes.
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

func assign(st *proxyState, req Request) {
	st.active++
	st.committed += req.Bytes
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
