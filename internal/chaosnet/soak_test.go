package chaosnet

// TestChaosSoak is the acceptance gate for the relay's overload contract
// (`make soak` runs it under -race): the real data plane at 2x admission
// capacity with latency, stalls, partial writes, and resets in the path.
// Invariants: no hangs (every dial gets an explicit verdict within its
// bound), bounded p99 for admitted transfers, client/server shed accounting
// agrees, and the post-soak drain leaves no goroutines behind.

import (
	"testing"
	"time"

	"incastproxy/internal/cliutil"
	"incastproxy/internal/obs"
)

func TestChaosSoak(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	reg := obs.NewRegistry()
	tracer := obs.NewTracerWithClock(cliutil.WallClock(time.Now))
	cfg := SoakConfig{
		Seed:          20250808,
		Capacity:      8,
		Conns:         16, // 2x capacity: half must be admitted, half shed or faulted
		Faults:        WANFaults(time.Sleep),
		DialBound:     5 * time.Second,
		TransferBound: 30 * time.Second,
		P99Bound:      20 * time.Second,
		IdleTimeout:   2 * time.Second,
		Now:           time.Now,
		Registry:      reg,
		Tracer:        tracer,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: admitted=%d shed=%d faulted=%d hung=%d p99=%v serverSheds=%d accepted=%d idleClosed=%d",
		res.Admitted, res.Shed, res.Faulted, res.Hung, res.P99,
		res.ServerSheds, res.ServerAccepted, res.IdleClosed)
	// Check includes the trace-completeness invariant: every admitted
	// dial must have a full client+relay span tree, every shed a
	// terminal shed event.
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.P99Bound != cfg.P99Bound {
		t.Fatalf("p99 held to %v, configured %v", res.P99Bound, cfg.P99Bound)
	}
	if len(res.AdmittedTraces) != res.Admitted || len(res.ShedTraces) != res.Shed {
		t.Fatalf("trace accounting: %d/%d admitted, %d/%d shed",
			len(res.AdmittedTraces), res.Admitted, len(res.ShedTraces), res.Shed)
	}
	// At 2x capacity the admission cap must actually bite: the server shed
	// at least one dial, and it did so explicitly.
	if res.ServerSheds == 0 {
		t.Fatal("soak at 2x capacity never triggered admission shedding")
	}
	if res.ServerAccepted != uint64(cfg.Conns) {
		t.Fatalf("server accepted %d of %d dials", res.ServerAccepted, cfg.Conns)
	}
}

// TestChaosSoakCleanFabric is the control run: no faults, capacity above
// the offered load. Everything must be admitted and nothing shed — proving
// the harness itself (not the chaos) causes the degraded outcomes above.
func TestChaosSoakCleanFabric(t *testing.T) {
	defer cliutil.LeakCheck(t)()
	cfg := SoakConfig{
		Seed:     1,
		Capacity: 32,
		Conns:    8,
		Faults:   Faults{Sleep: time.Sleep},
		Now:      time.Now,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.P99Bound != 30*time.Second { // TransferBound's default
		t.Fatalf("p99 held to %v, want the 30s default", res.P99Bound)
	}
	if res.Admitted != cfg.Conns || res.Shed != 0 || res.Faulted != 0 {
		t.Fatalf("clean fabric: admitted=%d shed=%d faulted=%d, want %d/0/0",
			res.Admitted, res.Shed, res.Faulted, cfg.Conns)
	}
}

func TestSoakRequiresClock(t *testing.T) {
	if _, err := RunSoak(SoakConfig{}); err == nil {
		t.Fatal("RunSoak without Now must refuse to run")
	}
}
