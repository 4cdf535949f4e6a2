package orchestrator

import (
	"sort"

	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

// Assignment reports what AssignIncasts decided for one detected incast.
type Assignment struct {
	Dst      workload.HostRef
	Start    units.Duration
	Degree   int
	Bytes    units.ByteSize
	Decision Decision
}

// AssignIncasts groups cross-datacenter flows into incasts (by destination
// and start time), asks the orchestrator for a routing decision per
// incast, and returns a copy of the flows with Via set where beneficial —
// the end-to-end form of future work #3 used by the mltraining example.
// Flows already carrying a Via, and intra-DC flows, are left untouched.
// Every request is made on the §4.1 fabric, the one workload.RunScenario
// runs the flows on.
func (o *Orchestrator) AssignIncasts(flows []workload.FlowSpec,
	scheme workload.Scheme) ([]workload.FlowSpec, []Assignment, error) {
	type key struct {
		dst   workload.HostRef
		start units.Duration
	}
	groups := make(map[key][]int)
	for i, f := range flows {
		if f.Via == nil && f.Src.DC != f.Dst.DC {
			k := key{f.Dst, f.Start}
			groups[k] = append(groups[k], i)
		}
	}
	// Deterministic decision order.
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.dst.DC != b.dst.DC {
			return a.dst.DC < b.dst.DC
		}
		return a.dst.Host < b.dst.Host
	})

	out := append([]workload.FlowSpec(nil), flows...)
	var assignments []Assignment
	for _, k := range keys {
		idxs := groups[k]
		var bytes units.ByteSize
		for _, i := range idxs {
			bytes += flows[i].Bytes
		}
		dec, err := o.Decide(Request{
			Degree:   len(idxs),
			Bytes:    bytes,
			SenderDC: flows[idxs[0]].Src.DC,
			Scheme:   scheme,
		})
		if err != nil {
			return nil, nil, err
		}
		if dec.UseProxy {
			for _, i := range idxs {
				out[i].Via = &workload.ProxyRef{Scheme: dec.Scheme, At: dec.Proxy}
			}
		}
		assignments = append(assignments, Assignment{
			Dst:      k.dst,
			Start:    k.start,
			Degree:   len(idxs),
			Bytes:    bytes,
			Decision: dec,
		})
	}
	return out, assignments, nil
}
