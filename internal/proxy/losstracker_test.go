package proxy

import (
	"testing"
	"testing/quick"

	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

func us(n int64) units.Time { return units.Time(n) * units.Time(units.Microsecond) }

func TestLossTrackerInOrderNoLosses(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{})
	for seq := uint64(0); seq < 1000; seq++ {
		if losses := lt.Observe(1, seq, us(int64(seq))); len(losses) != 0 {
			t.Fatalf("in-order stream flagged losses: %v", losses)
		}
	}
	if lt.Stats.LossesFlagged != 0 {
		t.Fatalf("flagged = %d", lt.Stats.LossesFlagged)
	}
}

func TestLossTrackerToleratesReordering(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{ReorderDelay: 100 * units.Microsecond})
	// Swap adjacent pairs: 1,0,3,2,5,4... arriving 1us apart.
	now := int64(0)
	for base := uint64(0); base < 500; base += 2 {
		for _, seq := range []uint64{base + 1, base} {
			if losses := lt.Observe(1, seq, us(now)); len(losses) != 0 {
				t.Fatalf("reordering within tolerance flagged: %v", losses)
			}
			now++
		}
	}
	if lt.Stats.LossesFlagged != 0 {
		t.Fatal("false positives under bounded reordering")
	}
}

func TestLossTrackerDetectsRealLoss(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{ReorderDelay: 50 * units.Microsecond})
	lt.Observe(1, 0, us(0))
	lt.Observe(1, 1, us(1))
	// seq 2 lost; 3..10 arrive.
	var got []Loss
	for seq := uint64(3); seq <= 10; seq++ {
		got = append(got, lt.Observe(1, seq, us(int64(seq)))...)
	}
	if len(got) != 0 {
		t.Fatalf("flagged before ReorderDelay: %v", got)
	}
	got = lt.Flush(us(100))
	if len(got) != 1 || got[0] != (Loss{Flow: 1, Seq: 2}) {
		t.Fatalf("losses = %v, want seq 2", got)
	}
	// Flushing again must not re-flag.
	if again := lt.Flush(us(200)); len(again) != 0 {
		t.Fatalf("double-flagged: %v", again)
	}
}

func TestLossTrackerLossDetectedOnLaterArrival(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{ReorderDelay: 50 * units.Microsecond})
	lt.Observe(1, 0, us(0))
	lt.Observe(1, 2, us(1)) // hole at 1
	losses := lt.Observe(1, 3, us(60))
	if len(losses) != 1 || losses[0].Seq != 1 {
		t.Fatalf("losses = %v", losses)
	}
}

func TestLossTrackerLateArrivalCountsFalsePositive(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{ReorderDelay: 10 * units.Microsecond})
	lt.Observe(1, 0, us(0))
	lt.Observe(1, 2, us(1))
	lt.Flush(us(50)) // seq 1 flagged
	lt.Observe(1, 1, us(60))
	if lt.Stats.LateArrivals != 1 {
		t.Fatalf("late arrivals = %d", lt.Stats.LateArrivals)
	}
}

func TestLossTrackerWindowOverrun(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{WindowPkts: 8, ReorderDelay: units.Second})
	lt.Observe(1, 0, us(0))
	// Jump far ahead: hole at 1..9 with window 8 forces early decisions.
	losses := lt.Observe(1, 100, us(1))
	if len(losses) == 0 {
		t.Fatal("window overrun should force loss decisions")
	}
	if lt.Stats.WindowOverruns == 0 {
		t.Fatal("overruns not counted")
	}
}

func TestLossTrackerFlowEviction(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{MaxFlows: 4})
	for f := uint64(1); f <= 5; f++ {
		lt.Observe(f, 0, us(int64(f)))
	}
	if lt.TrackedFlows() != 4 {
		t.Fatalf("tracked = %d", lt.TrackedFlows())
	}
	if lt.Stats.FlowEvictions != 1 {
		t.Fatalf("evictions = %d", lt.Stats.FlowEvictions)
	}
}

// Flush must report the losses of one tick in a fixed order (oldest tracked
// flow first, eviction respected): the inferring proxy NACKs in that order,
// so map iteration order here would reach every FCT downstream.
func TestLossTrackerFlushOrderIsInsertionOrder(t *testing.T) {
	lt := NewLossTracker(LossTrackerConfig{MaxFlows: 16, ReorderDelay: 10 * units.Microsecond})
	flows := []uint64{9, 3, 12, 1, 7, 15, 4, 2, 11, 5, 8, 14, 6, 13, 10, 16}
	for _, f := range flows {
		lt.Observe(f, 0, us(0))
		lt.Observe(f, 2, us(1)) // seq 1 becomes a hole
	}
	lt.Observe(17, 0, us(2)) // table full: evicts flow 9, the least recently touched
	got := lt.Flush(us(100))
	want := append(flows[1:], 17)[:len(flows)-1]
	if len(got) != len(want) {
		t.Fatalf("flush returned %d losses, want %d: %v", len(got), len(want), got)
	}
	for i, l := range got {
		if l.Flow != want[i] || l.Seq != 1 {
			t.Fatalf("loss %d = %+v, want flow %d seq 1 (full: %v)", i, l, want[i], got)
		}
	}
}

// Property: a random permutation bounded by maxDisplacement packets and
// delivered densely in time never produces false positives, and dropping a
// random subset always flags exactly the dropped sequences after a flush.
func TestPropertyLossTrackerExactness(t *testing.T) {
	f := func(seed int64, nRaw uint8, dropEvery uint8) bool {
		src := rng.New(seed)
		n := int(nRaw)%200 + 20
		drop := int(dropEvery)%7 + 3 // drop every 3rd..9th

		// Build arrival order with local shuffles of width 3.
		seqs := make([]uint64, 0, n)
		dropped := map[uint64]bool{}
		for i := 0; i < n; i++ {
			if i%drop == 0 && i > 0 {
				dropped[uint64(i)] = true
				continue
			}
			seqs = append(seqs, uint64(i))
		}
		for i := 0; i+1 < len(seqs); i += 2 {
			if src.Intn(2) == 0 {
				seqs[i], seqs[i+1] = seqs[i+1], seqs[i]
			}
		}

		lt := NewLossTracker(LossTrackerConfig{ReorderDelay: 100 * units.Microsecond, WindowPkts: 1 << 16})
		flagged := map[uint64]bool{}
		now := int64(0)
		for _, s := range seqs {
			for _, l := range lt.Observe(1, s, us(now)) {
				flagged[l.Seq] = true
			}
			now++
		}
		for _, l := range lt.Flush(us(now + 1000)) {
			flagged[l.Seq] = true
		}
		// Drops beyond the highest delivered sequence are invisible to
		// gap-based detection (no later packet reveals the hole); the
		// property covers only non-tail losses.
		var maxDelivered uint64
		for _, s := range seqs {
			if s > maxDelivered {
				maxDelivered = s
			}
		}
		expect := map[uint64]bool{}
		for s := range dropped {
			if s < maxDelivered {
				expect[s] = true
			}
		}
		if len(flagged) != len(expect) {
			return false
		}
		for s := range expect {
			if !flagged[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
