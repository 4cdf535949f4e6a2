// storage: erasure-coded fragment reconstruction across datacenters (§2).
// A fragment is lost; the orchestrator in DC1 reads the surviving
// fragments from servers in DC0 — a cross-datacenter incast whose latency
// is the user-visible read latency.
//
// The example follows §6's division of labour: the storage system only
// *declares* the reconstruction pattern (workload.StorageReconstruction),
// and the provider's orchestrator decides per read whether to relay it
// through a proxy (AssignIncasts, as in examples/mltraining).
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"log"

	incastproxy "incastproxy"
	"incastproxy/internal/orchestrator"
	"incastproxy/internal/workload"
)

func main() {
	// A 6+3 Reed-Solomon-style layout: reconstructing one fragment
	// reads 6 surviving fragments of 8 MB each.
	const surviving = 6
	const fragBytes = 8 * incastproxy.MB

	orc := orchestrator.New(1)
	orc.Register(orchestrator.Proxy{Ref: workload.HostRef{DC: 0, Host: 63}})

	// The storage system declares its pattern once.
	read := workload.StorageReconstructionConfig{
		Fragments:     surviving,
		FragmentBytes: fragBytes,
		Orchestrator:  workload.HostRef{DC: 1, Host: 0},
	}
	direct, _ := workload.StorageReconstruction(read, 1)

	proxied, assignments, err := orc.AssignIncasts(direct, incastproxy.ProxyStreamlined)
	if err != nil {
		log.Fatal(err)
	}
	dec := assignments[0].Decision
	fmt.Printf("reconstruction: %d fragments x %v -> %v\n", surviving, fragBytes, read.Orchestrator)
	fmt.Printf("deployment decision: useProxy=%v (%s)\n\n", dec.UseProxy, dec.Reason)

	// Run the assigned (proxied) read and the direct one for comparison.
	proxiedRes, err := incastproxy.RunScenario(incastproxy.Scenario{Flows: proxied, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	directRes, err := incastproxy.RunScenario(incastproxy.Scenario{Flows: direct, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s read latency = %v\n", "direct (status quo)", directRes.Makespan)
	fmt.Printf("%-22s read latency = %v\n", "proxy-assisted", proxiedRes.Makespan)
	if dec.UseProxy {
		faster := 1 - float64(proxiedRes.Makespan)/float64(directRes.Makespan)
		fmt.Printf("\nreconstruction completes %.1f%% faster through the proxy.\n", faster*100)
	}

	// A small read (one hot fragment) is declared too — the orchestrator
	// correctly leaves it direct (Figure 2 Right: small incasts don't
	// benefit).
	small := read
	small.Fragments = 2
	small.FragmentBytes = 256 * incastproxy.KB
	smallFlows, _ := workload.StorageReconstruction(small, 100)
	_, smallAssignments, err := orc.AssignIncasts(smallFlows, incastproxy.ProxyStreamlined)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsmall read decision: useProxy=%v (%s)\n",
		smallAssignments[0].Decision.UseProxy, smallAssignments[0].Decision.Reason)
}
