package workload

import (
	"runtime"
	"testing"

	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// benchmarkWorkload is one of the repository benchmark's simulator
// workloads: its name and its spec.
type benchmarkWorkload struct {
	name string
	spec Spec
}

// bench/des.go is the source of truth for everything from here to
// benchmarkWorkloads: the benchmark is its own module and cannot be imported,
// so its spec constructors are copied, unqualified, and the root package's
// TestAllocSpecsAreTheBenchmarks fails when the two drift apart.

// largeFabric is the 4096-hosts-per-datacenter fabric of epoch_fanin.
func largeFabric() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.Leaves, cfg.ServersPerLeaf = 32, 128
	return cfg
}

func epochSpec(seed int64) Spec {
	return Spec{Scheme: ProxyStreamlined, Topo: largeFabric(),
		Degree: 4000, TotalBytes: 16 * units.MB, Runs: 1, Seed: seed}
}

func cellSpec(scheme Scheme, seed int64) Spec {
	return Spec{Scheme: scheme, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: seed}
}

// benchmarkWorkloads returns the Fig 2 degree-8 40 MB cell under Baseline and
// under ProxyStreamlined, and the 4,000-sender fan-in on a 32×128 fabric.
func benchmarkWorkloads(seed int64) []benchmarkWorkload {
	return []benchmarkWorkload{
		{"cell_baseline", cellSpec(Baseline, seed)},
		{"cell_streamlined", cellSpec(ProxyStreamlined, seed)},
		{"epoch_fanin", epochSpec(seed)},
	}
}

// A warm run allocates what DESIGN's "What a run still allocates" table
// lists, within a margin: the fabric's packet pool is reserved for the
// incast's first windows at set-up, so no packet chunk is allocated while
// the burst is on the wire.
func TestEpochAllocBudget(t *testing.T) {
	budgets := map[string]float64{"cell_baseline": 135, "epoch_fanin": 205}
	for _, w := range benchmarkWorkloads(7) {
		budget, ok := budgets[w.name]
		if !ok {
			continue
		}
		var err error
		// Settle the collector first: a test binary's first cycle landing in
		// the measured call charges it the runtime's own allocations.
		runtime.GC()
		allocs := testing.AllocsPerRun(1, func() { // the warm-up call is not counted
			_, err = Run(w.spec)
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if allocs > budget {
			t.Errorf("%s: a warm run makes %.0f allocations, budget %.0f", w.name, allocs, budget)
		}
		t.Logf("%s: a warm run makes %.0f allocations", w.name, allocs)
	}
}

// BenchmarkEpochOp runs the benchmark's simulator workloads one Run per
// iteration. `make allocsites` profiles it at a memory profile rate of 1 to
// list what an op allocates, by site.
func BenchmarkEpochOp(b *testing.B) {
	for _, w := range benchmarkWorkloads(7) {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Run(w.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
