// Package rng provides seeded random sources and latency distributions used
// by the simulator (packet spraying, jitter) and the host-stack model
// (per-packet processing latency in Figures 4-5). All randomness in the
// repository flows through this package so experiments are reproducible from
// a single seed. A stream is SplitMix64 over one word: a draw is an add and
// the finalizer DeriveSeed uses.
package rng

import (
	"fmt"
	"math"
	"math/bits"

	"incastproxy/internal/units"
)

// Source is a deterministic random source: SplitMix64 (Steele et al., "Fast
// Splittable Pseudorandom Number Generators") over one 64-bit word. Seeding
// stores the seed, and a draw adds gamma to it and mixes the sum, so a fabric
// holds a source per switch and port queue for 8 bytes each and no draw
// builds or allocates anything. The zero Source is seed 0's. Like *rand.Rand,
// a Source is for one goroutine.
type Source struct{ x uint64 }

// gamma is SplitMix64's increment: 2⁶⁴/φ, rounded to odd.
const gamma = 0x9e3779b97f4a7c15

// next returns the stream's next 64 uniform bits.
func (s *Source) next() uint64 {
	s.x += gamma
	return splitmix64(s.x)
}

// DeriveSeed deterministically derives an independent child seed from a base
// seed and a label path, using the SplitMix64 finalizer. Distinct label paths
// yield decorrelated seeds even when base seeds are small consecutive
// integers, which is what makes parallel trials safe: every (run, sweep
// point, scheme) combination gets its own stream instead of sharing the
// experiment's base seed.
func DeriveSeed(base int64, labels ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, l := range labels {
		// The golden-ratio increment keeps label 0 distinct from "no
		// label"; the odd multiplier makes the pre-mix injective in l.
		x = splitmix64(x + gamma*uint64(l+1))
	}
	return int64(x)
}

// splitmix64 is the SplitMix64 avalanche finalizer (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators").
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// New returns a Source seeded with seed.
func New(seed int64) *Source { return &Source{x: uint64(seed)} }

// Split derives an independent child source; the child's stream is a
// deterministic function of the parent seed and the label.
func (s *Source) Split(label int64) *Source {
	c := s.Child(label)
	return &c
}

// Child is Split returning the child by value, for a holder that embeds it.
func (s *Source) Child(label int64) Source {
	const golden = 0x1e3779b97f4a7c15 // 2^63/phi, truncated to int64
	return Source{x: uint64(s.Int63() ^ label*golden)}
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return int64(s.next() >> 1) }

// Float64 returns a uniform float64 in [0, 1), a multiple of 2⁻⁵³.
func (s *Source) Float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n) and panics if n <= 0, as math/rand
// does. It is Lemire's multiply-with-rejection: the high word of next·n,
// drawn again while the low word is one of the 2⁶⁴ mod n values that would
// bias it.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(s.next(), bound)
	if lo < bound {
		for thresh := -bound % bound; lo < thresh; {
			hi, lo = bits.Mul64(s.next(), bound)
		}
	}
	return int(hi)
}

// NormFloat64 returns a standard normal variate: Box–Muller over two
// uniform draws, keeping the cosine branch.
func (s *Source) NormFloat64() float64 {
	r := math.Sqrt(-2 * math.Log(1-s.Float64()))
	return r * math.Cos(2*math.Pi*s.Float64())
}

// ExpFloat64 returns an exponential variate with mean 1, by inversion.
func (s *Source) ExpFloat64() float64 { return -math.Log(1 - s.Float64()) }

// A Distribution produces random durations. It abstracts the latency of a
// host-stack pipeline stage.
type Distribution interface {
	// Sample draws one duration. Implementations must never return a
	// negative duration.
	Sample(src *Source) units.Duration
	// Mean returns the distribution's expected value.
	Mean() units.Duration
	String() string
}

// Constant is a degenerate distribution that always returns D.
type Constant struct{ D units.Duration }

func (c Constant) Sample(*Source) units.Duration { return c.D }
func (c Constant) Mean() units.Duration          { return c.D }
func (c Constant) String() string                { return fmt.Sprintf("const(%v)", c.D) }

// Normal is a normal distribution truncated at zero.
type Normal struct{ Mu, Sigma units.Duration }

func (n Normal) Sample(src *Source) units.Duration {
	v := float64(n.Mu) + float64(n.Sigma)*src.NormFloat64()
	if v < 0 {
		v = 0
	}
	return units.Duration(v)
}
func (n Normal) Mean() units.Duration { return n.Mu }
func (n Normal) String() string       { return fmt.Sprintf("normal(%v,%v)", n.Mu, n.Sigma) }

// LogNormal draws exp(N(mu, sigma)) scaled so the *median* equals Median.
// Heavy right tails model scheduler preemptions and interrupt coalescing in
// the host stack; Sigma is the shape parameter of the underlying normal.
type LogNormal struct {
	Median units.Duration
	Sigma  float64
}

func (l LogNormal) Sample(src *Source) units.Duration {
	v := float64(l.Median) * math.Exp(l.Sigma*src.NormFloat64())
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if v > float64(math.MaxInt64)/2 {
		v = float64(math.MaxInt64) / 2
	}
	return units.Duration(v)
}

func (l LogNormal) Mean() units.Duration {
	return units.Duration(float64(l.Median) * math.Exp(l.Sigma*l.Sigma/2))
}
func (l LogNormal) String() string { return fmt.Sprintf("lognormal(med=%v,s=%.2f)", l.Median, l.Sigma) }

// Exponential has the given mean.
type Exponential struct{ MeanD units.Duration }

func (e Exponential) Sample(src *Source) units.Duration {
	return units.Duration(float64(e.MeanD) * src.ExpFloat64())
}
func (e Exponential) Mean() units.Duration { return e.MeanD }
func (e Exponential) String() string       { return fmt.Sprintf("exp(%v)", e.MeanD) }

// Shifted adds a fixed offset to another distribution; it models a constant
// code path plus a random component.
type Shifted struct {
	Base   Distribution
	Offset units.Duration
}

func (s Shifted) Sample(src *Source) units.Duration { return s.Offset + s.Base.Sample(src) }
func (s Shifted) Mean() units.Duration              { return s.Offset + s.Base.Mean() }
func (s Shifted) String() string {
	return fmt.Sprintf("%v+%v", s.Offset, s.Base)
}

// Component is one branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Distribution
}

// Mixture draws from one of several distributions with given weights. It
// models bimodal host behaviour (fast path vs. preempted path).
type Mixture struct{ Components []Component }

func (m Mixture) Sample(src *Source) units.Duration {
	total := 0.0
	for _, c := range m.Components {
		total += c.Weight
	}
	x := src.Float64() * total
	for _, c := range m.Components {
		if x < c.Weight {
			return c.Dist.Sample(src)
		}
		x -= c.Weight
	}
	if len(m.Components) == 0 {
		return 0
	}
	return m.Components[len(m.Components)-1].Dist.Sample(src)
}

func (m Mixture) Mean() units.Duration {
	total, sum := 0.0, 0.0
	for _, c := range m.Components {
		total += c.Weight
		sum += c.Weight * float64(c.Dist.Mean())
	}
	if total == 0 {
		return 0
	}
	return units.Duration(sum / total)
}

func (m Mixture) String() string { return fmt.Sprintf("mixture(%d)", len(m.Components)) }
