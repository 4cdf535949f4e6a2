// patternaware: the §6 research agenda's second direction — "proxying
// incast through pattern-aware rerouting". A third-party application emits
// periodic incast bursts (ML-training-like synchronization); no developer
// annotations exist. The operator's detector watches flow starts, declares
// an incast when the per-destination degree crosses its threshold, learns
// the burst period, predicts the next onset, and pre-installs proxy
// routing for the predicted bursts.
//
//	go run ./examples/patternaware
package main

import (
	"fmt"
	"log"
	"sort"

	incastproxy "incastproxy"
	"incastproxy/internal/control"
	"incastproxy/internal/units"
	"incastproxy/internal/workload"
)

const (
	phases   = 5
	degree   = 6
	perFlow  = 5 * incastproxy.MB
	period   = incastproxy.Duration(40 * incastproxy.Millisecond)
	receiver = 0 // DC1 host index
)

func main() {
	base := periodicBursts(nil)

	// --- The operator's control plane ---------------------------------
	// It sees flow starts (switch telemetry / flow logs) and runs the
	// incast detector. We feed it the workload's own flow-start stream,
	// which is exactly what the fabric would report.
	det := control.NewIncastDetector(control.IncastDetectorConfig{
		DegreeThreshold: 4,
		MinBytes:        10 * units.MB,
		Window:          units.Duration(2 * units.Millisecond),
	})
	dst := uint64(receiver)
	detectedAt := incastproxy.Duration(-1)
	for _, f := range sortedByStart(base) {
		if det.ObserveFlowStart(dst, uint64(f.Src.Host), f.Bytes, units.Time(f.Start)) &&
			detectedAt < 0 {
			detectedAt = f.Start
		}
	}
	next, ok := det.PredictNextOnset(dst)
	fmt.Printf("operator: first incast detected at t=%v; %d onsets recorded\n",
		detectedAt, len(det.Onsets(dst)))
	if !ok {
		log.Fatal("operator: no periodicity learned")
	}
	fmt.Printf("operator: periodic pattern learned, next onset predicted at t=%v (true: t=%v)\n\n",
		units.Duration(next), incastproxy.Duration(phases)*period)

	// --- Intervention --------------------------------------------------
	// The operator can only act on bursts *after* the pattern is
	// learned (3 onsets). Earlier bursts already ran direct.
	actFrom := det.Onsets(dst)[2]
	rerouted := periodicBursts(func(f *workload.FlowSpec) {
		if f.Start > incastproxy.Duration(actFrom) {
			f.Via = &workload.ProxyRef{
				Scheme: incastproxy.ProxyStreamlined,
				At:     workload.HostRef{DC: 0, Host: 63},
			}
		}
	})

	reportPerBurst("without intervention", base)
	fmt.Println()
	reportPerBurst("pattern-aware rerouting", rerouted)
	fmt.Println("\nBursts before the pattern is learned pay the long feedback loop;")
	fmt.Println("once the period is known, predicted bursts are relayed through the")
	fmt.Println("proxy and complete an order of magnitude faster.")
}

// periodicBursts builds the periodic incast; mutate (optional) edits each
// flow before it is appended.
func periodicBursts(mutate func(*workload.FlowSpec)) []workload.FlowSpec {
	var flows []workload.FlowSpec
	id := incastproxy.FlowID(1)
	for ph := 0; ph < phases; ph++ {
		for s := 0; s < degree; s++ {
			f := workload.FlowSpec{
				ID:    id,
				Src:   workload.HostRef{DC: 0, Host: s},
				Dst:   workload.HostRef{DC: 1, Host: receiver},
				Bytes: perFlow,
				Start: incastproxy.Duration(ph) * period,
			}
			if mutate != nil {
				mutate(&f)
			}
			flows = append(flows, f)
			id++
		}
	}
	return flows
}

func sortedByStart(flows []workload.FlowSpec) []workload.FlowSpec {
	out := append([]workload.FlowSpec(nil), flows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func reportPerBurst(name string, flows []workload.FlowSpec) {
	res, err := incastproxy.RunScenario(incastproxy.Scenario{Flows: flows, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", name)
	for ph := 0; ph < phases; ph++ {
		start := incastproxy.Duration(ph) * period
		var last incastproxy.Duration
		proxied := false
		for _, f := range flows {
			if f.Start != start {
				continue
			}
			if d := res.Done[f.ID]; d > last {
				last = d
			}
			proxied = proxied || f.Via != nil
		}
		route := "direct"
		if proxied {
			route = "proxied"
		}
		fmt.Printf("  burst %d (%-7s) ICT = %v\n", ph, route, last-start)
	}
}
