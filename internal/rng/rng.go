// Package rng provides seeded random sources and latency distributions used
// by the simulator (packet spraying, jitter) and the host-stack model
// (per-packet processing latency in Figures 4-5). All randomness in the
// repository flows through this package so experiments are reproducible from
// a single seed; a stream costs only that seed until something draws from it.
package rng

import (
	"fmt"
	"math"
	"math/rand"

	"incastproxy/internal/units"
)

// Source is a deterministic random source. It wraps math/rand so call sites
// do not depend on the global generator, and builds the generator (4.9 KB and
// a seeding pass) on the first draw: a fabric holds a source per port queue
// and most never draw. Like *rand.Rand, a Source is for one goroutine.
type Source struct {
	seed int64
	r    *rand.Rand
}

// rand returns the generator, seeding it on first use.
func (s *Source) rand() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(s.seed))
	}
	return s.r
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
		x = splitmix64(x + 0x9e3779b97f4a7c15*uint64(l+1))
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
func New(seed int64) *Source {
	return &Source{seed: seed}
}

// Split derives an independent child source; the child's stream is a
// deterministic function of the parent seed and the label.
func (s *Source) Split(label int64) *Source {
	c := s.Child(label)
	return &c
}

// Child is Split returning the child by value, for a holder that embeds it.
func (s *Source) Child(label int64) Source {
	const golden = 0x1e3779b97f4a7c15 // 2^63/phi, truncated to int64
	return Source{seed: s.rand().Int63() ^ label*golden}
}

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int { return s.rand().Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.rand().Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rand().Float64() }

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.rand().NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (s *Source) ExpFloat64() float64 { return s.rand().ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand().Perm(n) }

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

// Uniform draws uniformly from [Low, High].
type Uniform struct{ Low, High units.Duration }

func (u Uniform) Sample(src *Source) units.Duration {
	if u.High <= u.Low {
		return u.Low
	}
	return u.Low + units.Duration(src.Int63()%int64(u.High-u.Low+1))
}
func (u Uniform) Mean() units.Duration { return (u.Low + u.High) / 2 }
func (u Uniform) String() string       { return fmt.Sprintf("uniform(%v,%v)", u.Low, u.High) }

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

// Empirical resamples uniformly from recorded values, e.g. real measured
// processing times fed back into the pipeline model.
type Empirical struct{ Values []units.Duration }

func (e Empirical) Sample(src *Source) units.Duration {
	if len(e.Values) == 0 {
		return 0
	}
	return e.Values[src.Intn(len(e.Values))]
}

func (e Empirical) Mean() units.Duration {
	if len(e.Values) == 0 {
		return 0
	}
	var sum int64
	for _, v := range e.Values {
		sum += int64(v)
	}
	return units.Duration(sum / int64(len(e.Values)))
}

func (e Empirical) String() string { return fmt.Sprintf("empirical(n=%d)", len(e.Values)) }
