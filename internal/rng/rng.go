// Package rng provides seeded random sources and latency distributions used
// by the simulator (packet spraying, jitter) and the host-stack model
// (per-packet processing latency in Figures 4-5). All randomness in the
// repository flows through this package so experiments are reproducible from
// a single seed. A stream is math/rand's for its seed, and costs its seed
// plus a few multiplies per draw until it runs long.
package rng

import (
	"fmt"
	"math"
	"math/rand"

	"incastproxy/internal/units"
)

// Source is a deterministic random source: math/rand's stream for its seed,
// bit for bit, so call sites do not depend on the global generator. It serves
// its first lazyDraws values of Int63, Float64, Child and Split without
// math/rand's generator (4.9 KB and a 1,841-step seeding pass): a fabric holds
// a source per switch and port queue, and nearly all of them draw a handful
// of values or none. The draw after those, or any other method, builds the
// generator and replays the draws already served. Like *rand.Rand, a Source
// is for one goroutine.
type Source struct {
	x0    uint32     // the seed mod 2³¹−1, as math/rand's Seed reduces it (0 is seeded as zeroSeed)
	drawn uint32     // draws served without the generator
	r     *rand.Rand // the generator, once built
}

// math/rand's generator is a lagged Fibonacci sequence over rngLen registers:
// draw k (from 1) adds register rngLen-k into register rngLen-rngTap-k, both
// indices taken mod rngLen, and returns the sum. Until draw rngTap+1 reads
// back the first sum, every draw adds two registers as seeding left them, and
// seeding makes register i from three consecutive states, the (21+3i)th on,
// of the LCG x ← lcgMul·x mod lcgMod started at the seed, XOR rngCooked[i].
const (
	rngLen    = 607
	rngTap    = 273
	lazyDraws = rngTap
	lcgMod    = 1<<31 - 1
	lcgMul    = 48271
	zeroSeed  = 89482311 // what math/rand's Seed puts in place of a seed ≡ 0
)

// Written by init, read-only afterwards.
var (
	jump   [rngLen]uint64 // lcgMul^(21+3i) mod lcgMod: the LCG's jump to register i's first state
	cooked [rngLen]uint64 // math/rand's rngCooked
)

func init() {
	const mul3 = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * lcgMul % lcgMod
	}
	for i := range jump {
		jump[i], p = p, p*mul3%lcgMod
	}

	// rngCooked is unexported, so read it back from a real generator: its
	// first rngLen draws determine the registers it was seeded with, and a
	// register XOR its LCG part is the table's entry. Draw k > rngTap adds
	// register (rngLen-rngTap-k) mod rngLen, still as seeded, to the sum draw
	// k-rngTap stored; draw k ≤ rngTap adds two registers as seeded, the
	// second of which the first loop recovered.
	gen := rand.NewSource(1).(rand.Source64)
	var d [rngLen + 1]uint64 // d[k] is draw k
	for k := 1; k <= rngLen; k++ {
		d[k] = gen.Uint64()
	}
	var regs [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		regs[(2*rngLen-rngTap-k)%rngLen] = d[k] - d[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		regs[rngLen-rngTap-k] = d[k] - regs[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = regs[i] ^ register(1, i) // cooked[i] is still 0 here: register is the LCG part alone
	}
}

// register returns register i of math/rand's generator seeded x0 ∈ [1, lcgMod).
func register(x0 uint32, i int) uint64 {
	x := uint64(x0) * jump[i] % lcgMod
	u := x << 40
	x = x * lcgMul % lcgMod
	u ^= x << 20
	x = x * lcgMul % lcgMod
	return u ^ x ^ cooked[i]
}

// seeded returns the undrawn Source for seed.
func seeded(seed int64) Source {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	return Source{x0: uint32(seed)}
}

// rand returns the generator, building it and replaying the draws already
// served on first use.
func (s *Source) rand() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(int64(s.x0)))
		for i := s.drawn; i > 0; i-- {
			s.r.Int63()
		}
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
	s := seeded(seed)
	return &s
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
	return seeded(s.Int63() ^ label*golden)
}

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int { return s.rand().Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	if s.r != nil || s.drawn == lazyDraws {
		return s.rand().Int63()
	}
	s.drawn++
	x0, k := s.x0, int(s.drawn)
	if x0 == 0 {
		x0 = zeroSeed
	}
	return int64((register(x0, rngLen-rngTap-k) + register(x0, rngLen-k)) & math.MaxInt64)
}

// Float64 returns a uniform float64 in [0, 1): rand.Rand's Float64, over Int63.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

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
