package control

import (
	"testing"

	"incastproxy/internal/units"
)

func us(n int64) units.Time { return units.Time(n) * units.Time(units.Microsecond) }

func TestIncastDetectorThreshold(t *testing.T) {
	d := NewIncastDetector(IncastDetectorConfig{DegreeThreshold: 4, MinBytes: units.MB})
	dst := uint64(9)
	// Three senders: below threshold.
	for s := uint64(1); s <= 3; s++ {
		if d.ObserveFlowStart(dst, s, units.MB, us(int64(s))) {
			t.Fatal("detected below degree threshold")
		}
	}
	// Fourth sender crosses it.
	if !d.ObserveFlowStart(dst, 4, units.MB, us(4)) {
		t.Fatal("not detected at threshold")
	}
	// Still active: no re-trigger.
	if d.ObserveFlowStart(dst, 5, units.MB, us(5)) {
		t.Fatal("re-triggered while active")
	}
	if d.Degree(dst, us(5)) != 5 {
		t.Fatalf("degree = %d", d.Degree(dst, us(5)))
	}
}

func TestIncastDetectorMinBytesFilter(t *testing.T) {
	d := NewIncastDetector(IncastDetectorConfig{DegreeThreshold: 2, MinBytes: 10 * units.MB})
	dst := uint64(1)
	for s := uint64(1); s <= 6; s++ {
		if d.ObserveFlowStart(dst, s, units.KB, us(int64(s))) {
			t.Fatal("tiny burst must not count as incast (Fig 2 Right)")
		}
	}
}

func TestIncastDetectorWindowExpiry(t *testing.T) {
	d := NewIncastDetector(IncastDetectorConfig{Window: units.Duration(10 * units.Microsecond), DegreeThreshold: 2, MinBytes: 1})
	dst := uint64(1)
	d.ObserveFlowStart(dst, 1, units.MB, us(0))
	// 1ms later the first flow is out of the window.
	if d.Degree(dst, us(1000)) != 0 {
		t.Fatal("window did not expire old flows")
	}
}

func TestIncastDetectorPeriodPrediction(t *testing.T) {
	d := NewIncastDetector(IncastDetectorConfig{DegreeThreshold: 2, MinBytes: 1, Window: units.Duration(100 * units.Microsecond)})
	dst := uint64(3)
	// Bursts every 10ms: onset detection at t, t+10ms, t+20ms.
	for burst := int64(0); burst < 3; burst++ {
		base := burst * 10_000 // us
		d.ObserveFlowStart(dst, 1, units.MB, us(base))
		d.ObserveFlowStart(dst, 2, units.MB, us(base+1))
		// Quiet period resets the active flag.
		d.ObserveFlowStart(dst, 9, 1, us(base+5000))
	}
	next, ok := d.PredictNextOnset(dst)
	if !ok {
		t.Fatal("no prediction after 3 onsets")
	}
	want := us(30_001)
	tol := units.Time(2 * units.Millisecond)
	if next < want-tol || next > want+tol {
		t.Fatalf("predicted %v, want ~%v", next, want)
	}
	if len(d.Onsets(dst)) != 3 {
		t.Fatalf("onsets = %d", len(d.Onsets(dst)))
	}
}

func TestIncastDetectorNoPredictionWithoutHistory(t *testing.T) {
	d := NewIncastDetector(IncastDetectorConfig{})
	if _, ok := d.PredictNextOnset(42); ok {
		t.Fatal("prediction without history")
	}
	if d.Degree(42, us(0)) != 0 || d.Onsets(42) != nil {
		t.Fatal("unknown destination should be empty")
	}
}
