package workload

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"incastproxy/internal/obs"
	"incastproxy/internal/sim"
	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// The observability acceptance bar: two runs of the same seeded spec must
// produce byte-identical metric snapshots, manifests, and trace exports.
// Any nondeterminism sneaking into the recording paths (map iteration,
// pointer formatting, wall-clock reads) fails here.

func incastArtifacts(t *testing.T, spec Spec) (snapshot, manifest, chrome, csv []byte) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Runs[0]
	if rr.Manifest == nil {
		t.Fatal("run produced no manifest")
	}
	var snap, man, chr, c bytes.Buffer
	if err := rr.Manifest.Metrics.WriteText(&snap); err != nil {
		t.Fatal(err)
	}
	if err := rr.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	if rr.Trace == nil {
		t.Fatal("tracing was requested but RunResult.Trace is nil")
	}
	if err := rr.Trace.WriteChromeTrace(&chr); err != nil {
		t.Fatal(err)
	}
	if err := rr.Trace.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), man.Bytes(), chr.Bytes(), c.Bytes()
}

func TestIncastObservabilityDeterministic(t *testing.T) {
	for _, scheme := range append(Schemes(), SchemeAdaptive) {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			spec := quickSpec(scheme)
			spec.Obs = &ObsConfig{Trace: true}
			snap1, man1, chr1, csv1 := incastArtifacts(t, spec)
			snap2, man2, chr2, csv2 := incastArtifacts(t, spec)
			if !bytes.Equal(snap1, snap2) {
				t.Errorf("metric snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", snap1, snap2)
			}
			if !bytes.Equal(man1, man2) {
				t.Error("manifests differ")
			}
			if !bytes.Equal(chr1, chr2) {
				t.Error("chrome trace exports differ")
			}
			if !bytes.Equal(csv1, csv2) {
				t.Error("trace CSV exports differ")
			}
			if len(snap1) == 0 || len(chr1) == 0 {
				t.Error("artifacts unexpectedly empty")
			}
		})
	}
}

func TestChaosObservabilityDeterministic(t *testing.T) {
	run := func() (snapshot, chrome []byte) {
		spec := quickChaos(FailoverStandby)
		spec.Incast.Obs = &ObsConfig{Trace: true}
		res, err := RunChaos(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Manifest == nil || res.Trace == nil {
			t.Fatal("chaos run missing manifest or trace")
		}
		var snap, chr bytes.Buffer
		if err := res.Manifest.Metrics.WriteText(&snap); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteChromeTrace(&chr); err != nil {
			t.Fatal(err)
		}
		return snap.Bytes(), chr.Bytes()
	}
	snap1, chr1 := run()
	snap2, chr2 := run()
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("chaos metric snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", snap1, snap2)
	}
	if !bytes.Equal(chr1, chr2) {
		t.Error("chaos trace exports differ")
	}
	// The failover path must actually appear in the artifacts.
	if !bytes.Contains(snap1, []byte("faults_injected_total")) {
		t.Errorf("snapshot missing fault metrics:\n%s", snap1)
	}
	if !bytes.Contains(chr1, []byte(`"cat":"failover"`)) {
		t.Errorf("trace missing failover events")
	}
}

// The parallel-runner acceptance bar: fanning a spec's runs across workers
// must change nothing but wall-clock time. Figure tables, manifests, metric
// snapshots, and traces all come out byte-identical to the serial run.
func TestParallelIncastMatchesSerial(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, ProxyStreamlined, SchemeAdaptive} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			spec := quickSpec(scheme)
			if scheme == SchemeAdaptive {
				// Size the epoch past the buffer budget so every run takes
				// the full controller path: announced-overflow onset,
				// mid-epoch steer, suffix re-homing.
				spec.Degree = 8
				spec.TotalBytes = 40 * units.MB
			}
			spec.Runs = 4
			spec.Obs = &ObsConfig{Trace: true}

			serial := spec // Parallel 0: serial
			parallel := spec
			parallel.Parallel = 4

			a, err := Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Runs) != len(b.Runs) {
				t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
			}
			if a.ICT.String() != b.ICT.String() {
				t.Fatalf("ICT stats differ: %v vs %v", a.ICT.String(), b.ICT.String())
			}
			for i := range a.Runs {
				ra, rb := a.Runs[i], b.Runs[i]
				if ra.ICT != rb.ICT || ra.Events != rb.Events || ra.PktsSent != rb.PktsSent {
					t.Fatalf("run %d differs: ict %v/%v events %d/%d", i, ra.ICT, rb.ICT, ra.Events, rb.Events)
				}
				var ma, mb, sa, sb, ca, cb bytes.Buffer
				if err := ra.Manifest.WriteJSON(&ma); err != nil {
					t.Fatal(err)
				}
				if err := rb.Manifest.WriteJSON(&mb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
					t.Errorf("run %d manifests differ:\n--- serial ---\n%s\n--- parallel ---\n%s", i, ma.Bytes(), mb.Bytes())
				}
				if err := ra.Manifest.Metrics.WriteText(&sa); err != nil {
					t.Fatal(err)
				}
				if err := rb.Manifest.Metrics.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
					t.Errorf("run %d metric snapshots differ", i)
				}
				if err := ra.Trace.WriteChromeTrace(&ca); err != nil {
					t.Fatal(err)
				}
				if err := rb.Trace.WriteChromeTrace(&cb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
					t.Errorf("run %d traces differ", i)
				}
			}
		})
	}
}

// Chaos series: per-run seeds derive from the base seed, so serial and
// parallel execution must agree run for run — fault timelines included.
func TestParallelChaosSeriesMatchesSerial(t *testing.T) {
	spec := quickChaos(FailoverStandby)
	const runs = 3
	a, err := RunChaosSeries(spec, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaosSeries(spec, runs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != runs || len(b) != runs {
		t.Fatalf("lengths: %d, %d, want %d", len(a), len(b), runs)
	}
	seeds := make(map[int64]bool, runs)
	for i := range a {
		if a[i].ICT != b[i].ICT || a[i].FailedOver != b[i].FailedOver ||
			a[i].RehomedBytes != b[i].RehomedBytes || a[i].Events != b[i].Events {
			t.Fatalf("chaos run %d differs: %+v vs %+v", i, a[i].RunResult, b[i].RunResult)
		}
		if len(a[i].Timeline) != len(b[i].Timeline) {
			t.Fatalf("chaos run %d timelines differ", i)
		}
		var ma, mb bytes.Buffer
		if err := a[i].Manifest.WriteJSON(&ma); err != nil {
			t.Fatal(err)
		}
		if err := b[i].Manifest.WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
			t.Errorf("chaos run %d manifests differ", i)
		}
		seeds[a[i].Manifest.Seed] = true
	}
	if len(seeds) != runs {
		t.Fatalf("chaos series reused seeds: %d distinct of %d runs", len(seeds), runs)
	}
}

// Scenario batches: RunScenarios must return results in input order with
// per-flow completions identical to serial execution.
func TestParallelScenariosMatchSerial(t *testing.T) {
	mk := func(seed int64) Scenario {
		return Scenario{
			Seed: seed,
			Flows: []FlowSpec{
				{ID: 1, Src: HostRef{DC: 0, Host: 0}, Dst: HostRef{DC: 1, Host: 0}, Bytes: 2 * units.MB},
				{ID: 2, Src: HostRef{DC: 0, Host: 1}, Dst: HostRef{DC: 1, Host: 0}, Bytes: 2 * units.MB,
					Via: &ProxyRef{Scheme: ProxyStreamlined, At: HostRef{DC: 0, Host: 63}}},
			},
		}
	}
	scs := []Scenario{mk(1), mk(2), mk(3)}
	a, err := RunScenarios(scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenarios(scs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Makespan != b[i].Makespan || a[i].Events != b[i].Events {
			t.Fatalf("scenario %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for id, d := range a[i].Done {
			if b[i].Done[id] != d {
				t.Fatalf("scenario %d flow %d: %v vs %v", i, id, d, b[i].Done[id])
			}
		}
	}
}

// Same spec, different seed: the config hash must match (identity excludes
// the seed) while the artifacts may differ.
func TestManifestConfigHashStableAcrossSeeds(t *testing.T) {
	run := func(seed int64) *Result {
		spec := quickSpec(Baseline)
		spec.Seed = seed
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	ma, mb := a.Runs[0].Manifest, b.Runs[0].Manifest
	if ma.ConfigHash != mb.ConfigHash {
		t.Fatalf("config hash changed with seed: %016x vs %016x", ma.ConfigHash, mb.ConfigHash)
	}
	if ma.Seed == mb.Seed {
		t.Fatal("seeds should differ")
	}
}

// Spec.Shards and Spec.ShardWorkers are accepted and ignored: a spec that sets
// them validates, a traced adaptive one included, and runs to exactly what it
// runs to without them — result, manifest (config hash included) and metrics.
func TestShardFieldsChangeNothing(t *testing.T) {
	run := func(spec Spec) (RunResult, string) {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%v: %v", spec.Scheme, err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		rr := res.Runs[0]
		var out bytes.Buffer
		if err := rr.Manifest.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if err := rr.Manifest.Metrics.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		return rr, out.String()
	}
	traced := quickSpec(SchemeAdaptive)
	traced.Obs = &ObsConfig{Trace: true}
	for _, spec := range []Spec{quickSpec(Baseline), traced} {
		set := spec
		set.Shards, set.ShardWorkers = 2, 2
		wantRR, want := run(spec)
		gotRR, got := run(set)
		if !reflect.DeepEqual(gotRR, wantRR) {
			t.Errorf("%v: result differs with Shards set\n got %+v\nwant %+v", spec.Scheme, gotRR, wantRR)
		}
		if got != want {
			t.Errorf("%v: manifest or metrics differ with Shards set:\n--- got ---\n%s\n--- want ---\n%s", spec.Scheme, got, want)
		}
	}
}

// The config hash is blind to the two ignored fields for every scheme, so a
// manifest written with them set names the same experiment as one without.
func TestShardedConfigHashMatchesLegacy(t *testing.T) {
	for _, s := range append(Schemes(), SchemeAdaptive) {
		legacy := quickSpec(s)
		sharded := legacy
		sharded.Shards, sharded.ShardWorkers = 2, 2
		if lh, sh := obs.Fingerprint(legacy.fingerprintString()), obs.Fingerprint(sharded.fingerprintString()); lh != sh {
			t.Errorf("%v: config hashes differ: without %016x vs with Shards set %016x", s, lh, sh)
		}
	}
}

// Every spec the sharded engine used to refuse validates now that the fields
// are ignored: adaptive, traced, OnBuild, and out-of-range shard counts.
func TestShardedSpecValidation(t *testing.T) {
	withShards := func(s Scheme, shards int) Spec {
		spec := quickSpec(s)
		spec.Shards = shards
		return spec
	}
	adaptive := withShards(SchemeAdaptive, 2)
	traced := withShards(Baseline, 2)
	traced.Obs = &ObsConfig{Trace: true}
	built := withShards(Baseline, 2)
	built.OnBuild = func(*topo.Network, *sim.Engine) {}
	for name, spec := range map[string]Spec{
		"adaptive":    adaptive,
		"traced":      traced,
		"on-build":    built,
		"negative":    withShards(Baseline, -1),
		"oversized":   withShards(Baseline, 100),
		"streamlined": withShards(ProxyStreamlined, 4),
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: spec with Shards=%d rejected: %v", name, spec.Shards, err)
		}
	}
}

// Seeds still matter on a spec that sets Shards: the ignored field must not
// pin the random streams.
func TestShardedIncastSeedsDiffer(t *testing.T) {
	a := quickSpec(ProxyStreamlined)
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
	if x, y := ra.Runs[0], rb.Runs[0]; x.ICT == y.ICT && x.Events == y.Events && x.FlowFCT == y.FlowFCT {
		t.Errorf("different seeds produced identical runs: ICT %v, %d events", x.ICT, x.Events)
	}
}

// ProxyInferring must be as deterministic per seed as every other scheme:
// the loss tracker's flush walks its flow table in a fixed order, so the
// NACK order — and with it every per-flow completion time — cannot depend on
// Go's map iteration order.
func TestInferringDeterministicPerSeed(t *testing.T) {
	spec := Spec{Scheme: ProxyInferring, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
	var first RunResult
	for i := 0; i < 8; i++ {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		rr := res.Runs[0]
		if i == 0 {
			first = rr
			continue
		}
		if !reflect.DeepEqual(rr, first) {
			t.Fatalf("run %d differs from run 0:\n got %+v\nwant %+v", i, rr, first)
		}
	}
}

// Build keeps nothing outside the Network it returns, and an epoch's flows come
// from slabs of its own, so epochs built on two goroutines at once (as a
// -parallel sweep builds them) share nothing: both simulate what a lone one
// does, and the race detector sees no access in common.
func TestConcurrentBuildsSimulateTheSame(t *testing.T) {
	spec := quickSpec(ProxyStreamlined).withDefaults()
	alone, err := runOnce(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var together [2]RunResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = runOnce(spec, spec.Seed)
		}()
	}
	wg.Wait()
	for i, rr := range together {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := goldenOf(rr), goldenOf(alone); got != want {
			t.Errorf("epoch %d built beside another differs from one built alone\n got %+v\nwant %+v", i, got, want)
		}
	}
}
