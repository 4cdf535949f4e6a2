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
