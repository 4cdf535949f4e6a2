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

// runArt is one traced run's metric snapshot, manifest and Chrome trace.
type runArt struct{ snapshot, manifest, chrome []byte }

// runArtifacts runs spec and returns its result and each run's artifacts, in
// run order.
func runArtifacts(t *testing.T, spec Spec) (*Result, []runArt) {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	arts := make([]runArt, len(res.Runs))
	for i, rr := range res.Runs {
		if rr.Manifest == nil || rr.Trace == nil {
			t.Fatal("a traced run produced no manifest or no trace")
		}
		var snap, man, chr bytes.Buffer
		if err := rr.Manifest.Metrics.WriteText(&snap); err != nil {
			t.Fatal(err)
		}
		if err := rr.Manifest.WriteJSON(&man); err != nil {
			t.Fatal(err)
		}
		if err := rr.Trace.WriteChromeTrace(&chr); err != nil {
			t.Fatal(err)
		}
		arts[i] = runArt{snap.Bytes(), man.Bytes(), chr.Bytes()}
	}
	return res, arts
}

// sameArtifacts reports each artifact in which two executions of one spec
// differ, run by run.
func sameArtifacts(t *testing.T, what string, a, b []runArt) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d runs vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].snapshot, b[i].snapshot) {
			t.Errorf("%s: run %d metric snapshots differ:\n--- first ---\n%s\n--- second ---\n%s", what, i, a[i].snapshot, b[i].snapshot)
		}
		if !bytes.Equal(a[i].manifest, b[i].manifest) {
			t.Errorf("%s: run %d manifests differ", what, i)
		}
		if !bytes.Equal(a[i].chrome, b[i].chrome) {
			t.Errorf("%s: run %d chrome trace exports differ", what, i)
		}
	}
}

func TestIncastObservabilityDeterministic(t *testing.T) {
	for _, scheme := range append(Schemes(), SchemeAdaptive) {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			spec := quickSpec(scheme)
			spec.Obs = &ObsConfig{Trace: true}
			_, a := runArtifacts(t, spec)
			_, b := runArtifacts(t, spec)
			sameArtifacts(t, "two runs", a, b)
			if len(a[0].snapshot) == 0 || len(a[0].chrome) == 0 {
				t.Error("artifacts unexpectedly empty")
			}
		})
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

			a, artsA := runArtifacts(t, serial)
			b, artsB := runArtifacts(t, parallel)
			if a.ICT.String() != b.ICT.String() {
				t.Fatalf("ICT stats differ: %v vs %v", a.ICT.String(), b.ICT.String())
			}
			for i := range a.Runs {
				ra, rb := a.Runs[i], b.Runs[i]
				if ra.ICT != rb.ICT || ra.Events != rb.Events || ra.PktsSent != rb.PktsSent {
					t.Fatalf("run %d differs: ict %v/%v events %d/%d", i, ra.ICT, rb.ICT, ra.Events, rb.Events)
				}
			}
			sameArtifacts(t, "serial vs parallel", artsA, artsB)
		})
	}
}

// crashSpec is FigureAdaptive's crash row on a streamlined incast of 16 MB, so
// that it is still sending when the crash comes, traced: the proxy host dies
// 1 ms in and comes back 50 ms later.
func crashSpec() Spec {
	spec := quickSpec(ProxyStreamlined)
	spec.TotalBytes = 16 * units.MB
	spec.ProxyCrashAt, spec.ProxyRestartAfter = units.Millisecond, 50*units.Millisecond
	spec.Obs = &ObsConfig{Trace: true}
	return spec
}

// The proxy crash reports as one fault: injected and cleared once, none left
// active, one 50 ms outage, and a "fault"/"host-crash" span on track 1 naming
// the host from crash to restart. The flows wait out the outage by RTO, and two
// runs agree byte for byte.
func TestCrashObservabilityDeterministic(t *testing.T) {
	res, a := runArtifacts(t, crashSpec())
	_, b := runArtifacts(t, crashSpec())
	sameArtifacts(t, "two runs", a, b)
	if rr := res.Runs[0]; rr.ICT < 51*units.Millisecond || rr.Timeouts == 0 {
		t.Errorf("ICT %v after %d timeouts: the flows must wait for the restart by RTO", rr.ICT, rr.Timeouts)
	}
	for _, line := range []string{"faults_injected_total 1", "faults_cleared_total 1", "faults_active 0",
		"faults_outage_us_count 1", "faults_outage_us_sum 50000"} {
		if !bytes.Contains(a[0].snapshot, []byte("\n"+line+"\n")) {
			t.Errorf("snapshot lacks %q:\n%s", line, a[0].snapshot)
		}
	}
	for _, span := range []string{
		`{"name":"host-crash","cat":"fault","ph":"B","ts":1000.000000,"pid":1,"tid":1,"args":{"target":"dc0/h63"}}`,
		`{"name":"host-crash","cat":"fault","ph":"E","ts":51000.000000,"pid":1,"tid":1,"args":{"target":"dc0/h63"}}`,
	} {
		if !bytes.Contains(a[0].chrome, []byte(span)) {
			t.Errorf("trace lacks %s", span)
		}
	}
}

// Fanning the crash spec's runs across workers changes nothing either.
func TestParallelCrashRunsMatchSerial(t *testing.T) {
	serial := crashSpec()
	serial.Runs = 3
	parallel := serial
	parallel.Parallel = 4
	_, a := runArtifacts(t, serial)
	_, b := runArtifacts(t, parallel)
	sameArtifacts(t, "serial vs parallel", a, b)
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
