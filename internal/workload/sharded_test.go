package workload

import (
	"bytes"
	"testing"

	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// shardSpec is a small fabric that still has real cross-DC contention: 2
// spines, 2 leaves, 4 servers per leaf per DC, 2 backbones.
func shardSpec(s Scheme) Spec {
	return Spec{
		Scheme:     s,
		Degree:     4,
		TotalBytes: 4 * units.MB,
		Runs:       1,
		Seed:       42,
		Topo: topo.Config{
			Spines:            2,
			Leaves:            2,
			ServersPerLeaf:    4,
			Backbones:         2,
			BackbonesPerSpine: 1,
			LinkRate:          25 * units.Gbps,
			IntraDelay:        units.Microsecond,
			InterDelay:        200 * units.Microsecond,
			TorQueue:          topo.DefaultConfig().TorQueue,
			BackboneQueue:     topo.DefaultConfig().BackboneQueue,
			Spray:             true,
		},
	}
}

// shardedArtifacts runs spec and extracts everything byte-identity covers:
// the numeric results, the manifest JSON, and the metric text.
func shardedArtifacts(t *testing.T, spec Spec) (RunResult, []byte, []byte) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Runs[0]
	if rr.Manifest == nil {
		t.Fatal("run produced no manifest")
	}
	var man, snap bytes.Buffer
	if err := rr.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	if err := rr.Manifest.Metrics.WriteText(&snap); err != nil {
		t.Fatal(err)
	}
	return rr, man.Bytes(), snap.Bytes()
}

// sameRunResult compares every result field, the engine's event count
// included: what must hold at one shard count, whatever the worker count.
func sameRunResult(a, b RunResult) bool { return samePhysics(a, b) && a.Events == b.Events }

// samePhysics compares every result field except Events: what must hold
// across shard counts. The partition decides which links are cut, and a cut
// link keeps the serialization-end event a local link does without
// (DESIGN §13), so the same packets at the same instants cost a different
// number of events.
func samePhysics(a, b RunResult) bool {
	return a.ICT == b.ICT &&
		a.Completed == b.Completed &&
		a.Timeouts == b.Timeouts &&
		a.Retransmits == b.Retransmits &&
		a.Nacks == b.Nacks &&
		a.MarkedAcks == b.MarkedAcks &&
		a.PktsSent == b.PktsSent &&
		a.ReceiverToRMaxQueue == b.ReceiverToRMaxQueue &&
		a.ProxyToRMaxQueue == b.ProxyToRMaxQueue &&
		a.ReceiverToRDrops == b.ReceiverToRDrops &&
		a.ProxyToRTrims == b.ProxyToRTrims &&
		a.ProxyToRDrops == b.ProxyToRDrops &&
		a.ProxyFalseNacks == b.ProxyFalseNacks &&
		a.FlowFCT == b.FlowFCT
}

// The tentpole acceptance test: for a given seed, what a sharded run
// simulates is byte-identical at every shard count and every worker count —
// numeric results, manifests, and metric snapshots all match the 1-shard
// reference once the engine's own sim_* series are set aside (physText) —
// and at one shard count every worker count matches in those as well.
func TestShardedIncastByteIdenticalAcrossShardCounts(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, ProxyStreamlined, ProxyInferring} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			ref := shardSpec(scheme)
			ref.Shards = 1
			refRR, refMan, refSnap := shardedArtifacts(t, ref)
			if refRR.Events == 0 || len(refSnap) == 0 {
				t.Fatal("reference run produced no work")
			}
			if refRR.FlowFCT.N != ref.Degree || refRR.FlowFCT.P99 == 0 {
				t.Fatalf("FlowFCT summary not populated: %+v", refRR.FlowFCT)
			}

			for _, tc := range []struct{ shards, workers int }{
				{2, 1}, {2, 2}, {4, 1}, {4, 4},
			} {
				spec := shardSpec(scheme)
				spec.Shards = tc.shards
				spec.ShardWorkers = tc.workers
				rr, man, snap := shardedArtifacts(t, spec)
				if !samePhysics(refRR, rr) {
					t.Errorf("shards=%d workers=%d: results diverge\n ref: %+v\n got: %+v",
						tc.shards, tc.workers, refRR, rr)
				}
				if physText(string(refMan)) != physText(string(man)) {
					t.Errorf("shards=%d workers=%d: manifests differ", tc.shards, tc.workers)
				}
				if physText(string(refSnap)) != physText(string(snap)) {
					t.Errorf("shards=%d workers=%d: metric snapshots differ:\n--- ref ---\n%s\n--- got ---\n%s",
						tc.shards, tc.workers, refSnap, snap)
				}
				if tc.workers == 1 {
					continue
				}
				// Against the same partition run by one worker, nothing differs.
				spec.ShardWorkers = 1
				oneRR, oneMan, oneSnap := shardedArtifacts(t, spec)
				if !sameRunResult(oneRR, rr) || !bytes.Equal(oneMan, man) || !bytes.Equal(oneSnap, snap) {
					t.Errorf("shards=%d: workers=%d differs from workers=1\n one: %+v\n got: %+v",
						tc.shards, tc.workers, oneRR, rr)
				}
			}
		})
	}
}

// The naive proxy runs its own relay transport at the proxy host; it must
// shard just like the rest.
func TestShardedIncastNaiveProxy(t *testing.T) {
	ref := shardSpec(ProxyNaive)
	ref.Shards = 1
	refRR, _, refSnap := shardedArtifacts(t, ref)

	spec := shardSpec(ProxyNaive)
	spec.Shards = 2
	spec.ShardWorkers = 2
	rr, _, snap := shardedArtifacts(t, spec)
	if !samePhysics(refRR, rr) {
		t.Errorf("results diverge\n ref: %+v\n got: %+v", refRR, rr)
	}
	if physText(string(refSnap)) != physText(string(snap)) {
		t.Error("metric snapshots differ")
	}
}

// Cross traffic and proxy faults both live entirely in DC0; the sharded
// path must carry them without divergence.
func TestShardedIncastWithCrossTrafficAndFaults(t *testing.T) {
	base := shardSpec(ProxyStreamlined)
	base.CrossTraffic = CrossTrafficSpec{Flows: 2, Bytes: 256 * units.KB}
	base.ProxyCrashAt = 300 * units.Microsecond
	base.ProxyRestartAfter = 200 * units.Microsecond
	base.MaxSimTime = 2 * units.Second

	ref := base
	ref.Shards = 1
	refRes, refErr := Run(ref)

	spec := base
	spec.Shards = 2
	spec.ShardWorkers = 2
	res, err := Run(spec)

	// A crashed proxy may legitimately leave the incast incomplete;
	// what matters is that both paths agree exactly.
	if (refErr == nil) != (err == nil) {
		t.Fatalf("completion disagrees: ref err=%v, sharded err=%v", refErr, err)
	}
	if refErr != nil {
		return
	}
	if !samePhysics(refRes.Runs[0], res.Runs[0]) {
		t.Errorf("results diverge\n ref: %+v\n got: %+v", refRes.Runs[0], res.Runs[0])
	}
}

// Seeds must still matter: different seeds produce different runs (guards
// against the sharded path accidentally fixing the RNG).
func TestShardedIncastSeedsDiffer(t *testing.T) {
	a := shardSpec(ProxyStreamlined)
	a.Shards = 2
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Seed = 43
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if sameRunResult(ra.Runs[0], rb.Runs[0]) {
		t.Error("different seeds produced identical runs")
	}
}

// The sharded path's config hash must match the single-engine path's: the
// shard count is an execution detail, not part of the experiment identity.
func TestShardedConfigHashMatchesLegacy(t *testing.T) {
	legacy := shardSpec(Baseline)
	lres, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardSpec(Baseline)
	sharded.Shards = 2
	sharded.ShardWorkers = 2
	sres, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if lh, sh := lres.Runs[0].Manifest.ConfigHash, sres.Runs[0].Manifest.ConfigHash; lh != sh {
		t.Errorf("config hashes differ: legacy %q vs sharded %q", lh, sh)
	}
}

func TestShardedSpecValidation(t *testing.T) {
	bad := shardSpec(SchemeAdaptive)
	bad.Shards = 2
	if err := bad.Validate(); err == nil {
		t.Error("SchemeAdaptive with shards accepted")
	}
	bad = shardSpec(Baseline)
	bad.Shards = 2
	bad.Obs = &ObsConfig{Trace: true}
	if err := bad.Validate(); err == nil {
		t.Error("tracing with shards accepted")
	}
	bad = shardSpec(Baseline)
	bad.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative shards accepted")
	}
	bad = shardSpec(Baseline)
	bad.Shards = 100 // far beyond 2 + Backbones
	if err := bad.Validate(); err == nil {
		t.Error("oversubscribed shard count accepted")
	}
	ok := shardSpec(ProxyStreamlined)
	ok.Shards = 4
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sharded spec rejected: %v", err)
	}
}
