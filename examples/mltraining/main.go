// mltraining: a Mixture-of-Experts training job spanning two datacenters
// (§2's motivating workload). Each dispatch phase is an all-to-all
// exchange, so every expert simultaneously receives from all others —
// concurrent incasts over the long-haul links.
//
// The example runs the same job three ways: direct, with every cross-DC
// flow relayed through a single streamlined proxy, and with the proxies
// chosen by the orchestrator across the concurrent incasts (future work
// #3).
//
//	go run ./examples/mltraining
package main

import (
	"fmt"
	"log"

	incastproxy "incastproxy"
	"incastproxy/internal/orchestrator"
	"incastproxy/internal/workload"
)

func main() {
	cfg := workload.MoEConfig{
		LocalExperts:  6, // experts 0..5 live in DC0
		RemoteExperts: 4, // experts 6..9 live in DC1
		BytesPerPair:  6 * incastproxy.MB,
		Phases:        2,
		Period:        incastproxy.Duration(40 * incastproxy.Millisecond),
		ProxyHost:     [2]int{63, 63},
	}
	fmt.Printf("MoE all-to-all: %d+%d experts, %v per pair, %d phases\n\n",
		cfg.LocalExperts, cfg.RemoteExperts, cfg.BytesPerPair, cfg.Phases)

	// 1. Direct: every cross-DC flow pays the long feedback loop.
	direct, _ := workload.MoEAllToAll(cfg, 1)
	runAndReport("direct", direct)

	// 2. Single proxy per DC for all cross-DC flows.
	proxied := cfg
	s := incastproxy.ProxyStreamlined
	proxied.ProxyCrossDC = &s
	proxiedFlows, _ := workload.MoEAllToAll(proxied, 1)
	runAndReport("one proxy per DC", proxiedFlows)

	// 3. Orchestrated: each expert's incoming incast gets its own proxy
	// decision (future work #3), spreading load over a pool of proxy
	// hosts per DC.
	orc := orchestrator.New(1)
	for h := 60; h < 64; h++ {
		orc.Register(orchestrator.Proxy{Ref: workload.HostRef{DC: 0, Host: h}})
		orc.Register(orchestrator.Proxy{Ref: workload.HostRef{DC: 1, Host: h}})
	}
	orchestrated, assignments, err := orc.AssignIncasts(direct, incastproxy.ProxyStreamlined)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range assignments {
		if !a.Decision.UseProxy {
			fmt.Printf("  orchestrator: incast to %v goes direct (%s)\n", a.Dst, a.Decision.Reason)
		}
	}
	runAndReport("orchestrated proxy pool", orchestrated)
}

func runAndReport(name string, flows []workload.FlowSpec) {
	res, err := incastproxy.RunScenario(incastproxy.Scenario{Flows: flows, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	// Training synchronizes on the slowest flow, so the makespan is the
	// job-visible cost of the exchange.
	fmt.Printf("%-24s makespan=%-10v flows=%d events=%d\n",
		name, res.Makespan, len(res.Done), res.Events)
}
