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
	budgets := map[string]float64{"cell_baseline": 75, "cell_streamlined": 80, "epoch_fanin": 75}
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

// A run's metrics — its registry, the layers' collectors, the snapshot and
// the manifest — cost a fixed handful of allocations: a warm default run
// makes at most 20 more than the same run with the registry disabled.
func TestRunMetricsAllocBudget(t *testing.T) {
	const budget = 20
	for _, w := range benchmarkWorkloads(7) {
		off := w.spec
		off.Obs = &ObsConfig{Disable: true}
		var allocs [2]float64
		for i, spec := range []Spec{w.spec, off} {
			var err error
			runtime.GC()
			allocs[i] = testing.AllocsPerRun(1, func() { _, err = Run(spec) })
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		if d := allocs[0] - allocs[1]; d > budget {
			t.Errorf("%s: metrics make %.0f allocations a run (%.0f with, %.0f without), budget %d",
				w.name, d, allocs[0], allocs[1], budget)
		}
		t.Logf("%s: metrics make %.0f allocations a run (%.0f with, %.0f without)", w.name, allocs[0]-allocs[1], allocs[0], allocs[1])
	}
}

// A traced run records into chunks of interned, pointer-free records: the
// streamlined cell's ~407,000 events cost a few hundred allocations (the
// chunks, the string table, a label and track names per flow), not one or
// more per event.
func TestTracedRunAllocBudget(t *testing.T) {
	const budget = 400
	spec := cellSpec(ProxyStreamlined, 7)
	spec.Obs = &ObsConfig{Trace: true}
	var err error
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() { _, err = Run(spec) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Errorf("a traced run of the streamlined cell makes %.0f allocations, budget %d", allocs, budget)
	}
	t.Logf("a traced run of the streamlined cell makes %.0f allocations", allocs)
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
