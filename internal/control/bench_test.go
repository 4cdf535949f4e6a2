package control

import (
	"testing"

	"incastproxy/internal/units"
)

// The controller ticks every ~20us of virtual time; its per-tick cost is a
// hot-path budget exactly like the obs instruments'.

func BenchmarkEWMAObserve(b *testing.B) {
	m := NewEWMA(100 * units.Microsecond)
	for i := 0; i < b.N; i++ {
		m.Observe(units.Time(i)*units.Time(units.Microsecond), float64(i&1023))
	}
}

func BenchmarkRateObserve(b *testing.B) {
	r := NewRate(100 * units.Microsecond)
	for i := 0; i < b.N; i++ {
		r.Observe(units.Time(i)*units.Time(units.Microsecond), uint64(i)*3)
	}
}

func BenchmarkPathEstimatorObserveRTT(b *testing.B) {
	pe := NewPathEstimator("bench", 0)
	for i := 0; i < b.N; i++ {
		pe.ObserveRTT(units.Duration(1+i&255) * units.Microsecond)
	}
}

func BenchmarkDetectorStep(b *testing.B) {
	d := NewDetector(DetectorConfig{
		OnsetDepth: units.MB, DecayDepth: 100 * units.KB,
		MinDwell: 100 * units.Microsecond,
	})
	sig := &QueueSignal{
		Depth:    NewEWMA(100 * units.Microsecond),
		MarkRate: NewRate(100 * units.Microsecond),
		TrimRate: NewRate(100 * units.Microsecond),
		DropRate: NewRate(100 * units.Microsecond),
	}
	for i := 0; i < b.N; i++ {
		now := units.Time(i) * units.Time(20*units.Microsecond)
		sig.raw = units.ByteSize((i & 127) * 20 * int(units.KB))
		sig.Depth.Observe(now, float64(sig.raw))
		d.Step(now, sig)
	}
}
