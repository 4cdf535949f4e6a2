package rng

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"incastproxy/internal/units"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
}

// lazyCoverage counts the transitions TestLazySourceMatchesMathRand's
// sequences reached.
type lazyCoverage struct {
	crossedLazily int // a draw past lazyDraws built the generator
	builtEarly    int // another method built it after some lazy draws
	grandchildren int // the child of a child drew
}

// agree drives ours and ref, seeded alike and undrawn, through a random
// sequence of methods picked by ops, and returns the first disagreement: a
// value that differs, or a generator built when it need not be or missing
// when it must be there. Child and Split chains go depth levels further down.
func agree(ours *Source, ref *rand.Rand, ops *rand.Rand, depth int, cov *lazyCoverage) error {
	const golden = 0x1e3779b97f4a7c15
	draws, eager := 0, false // draws served, and whether a method that needs the generator ran
	kinds := 15
	if depth == 0 {
		kinds = 12 // no Child or Split
	}
	for n := ops.Intn(24); n > 0; n-- {
		before := ours.r != nil
		var got, want any
		switch op := ops.Intn(kinds); {
		case op < 10: // a run of Int63 and Float64 draws
			for i := 1 + ops.Intn(150); i > 0 && reflect.DeepEqual(got, want); i-- {
				if ops.Intn(2) == 0 {
					got, want = ours.Int63(), ref.Int63()
				} else {
					got, want = ours.Float64(), ref.Float64()
				}
				draws++
			}
		case op < 12: // a method that builds the generator
			eager = true
			if !before && draws > 0 {
				cov.builtEarly++
			}
			switch m := 1 + ops.Intn(1<<ops.Intn(40)); ops.Intn(4) {
			case 0:
				got, want = ours.Intn(m), ref.Intn(m)
			case 1:
				got, want = ours.NormFloat64(), ref.NormFloat64()
			case 2:
				got, want = ours.ExpFloat64(), ref.ExpFloat64()
			default:
				got, want = ours.Perm(m%9), ref.Perm(m%9)
			}
		default: // Child or Split, and the child's own sequence
			label := ops.Int63() - ops.Int63()
			var child *Source
			if op == 12 {
				c := ours.Child(label)
				child = &c
			} else {
				child = ours.Split(label)
			}
			draws++
			if child.r != nil {
				return fmt.Errorf("label %d: an undrawn child has a generator", label)
			}
			if err := agree(child, rand.New(rand.NewSource(ref.Int63()^label*golden)), ops, depth-1, cov); err != nil {
				return fmt.Errorf("child %d: %w", label, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("after %d draws: %v, math/rand gives %v", draws, got, want)
		}
		if built := ours.r != nil; built != (eager || draws > lazyDraws) {
			return fmt.Errorf("after %d draws (another method called: %v): generator built = %v", draws, eager, built)
		}
		if !before && !eager && draws > lazyDraws {
			cov.crossedLazily++
		}
	}
	if depth == 1 && draws > 0 {
		cov.grandchildren++
	}
	return nil
}

// A Source's stream is math/rand's for its seed, bit for bit, whether it is
// served lazily or by the generator: for any seed and any sequence of methods,
// including sequences that cross draw lazyDraws, every value equals
// math/rand's, Child and Split seed the child with the parent's next draw
// mixed with the label, at any depth, and the generator is built only by a
// draw past lazyDraws or another method. The seeds include those math/rand's
// seeding treats specially (0 and the multiples of 2³¹−1, negatives, and
// MinInt64) and the zero Source, which is seed 0's. -quickchecks sets the
// number of random seeds.
func TestLazySourceMatchesMathRand(t *testing.T) {
	var cov lazyCoverage
	check := func(ours *Source, seed, opSeed int64) bool {
		if err := agree(ours, rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(opSeed)), 3, &cov); err != nil {
			t.Errorf("seed %d, ops %d: %v", seed, opSeed, err)
			return false
		}
		return true
	}
	special := []int64{0, 1, -1, 7, lcgMod, -lcgMod, 2 * lcgMod, -5 * lcgMod, lcgMod - 1, lcgMod + 1, zeroSeed, -zeroSeed,
		math.MaxInt64 / lcgMod * lcgMod, math.MinInt64 / lcgMod * lcgMod, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		DeriveSeed(7, 3)}
	for i, seed := range special {
		check(New(seed), seed, int64(i))
	}
	check(&Source{}, 0, -1)
	f := func(x, opSeed int64) bool {
		seed := x
		switch x & 3 {
		case 1: // a multiple of 2³¹−1, of either sign
			seed = x >> 34 * lcgMod
		case 2:
			seed = special[uint64(x>>2)%uint64(len(special))]
		case 3: // a small seed, of either sign
			seed = x >> 2 % 1000
		}
		return check(New(seed), seed, opSeed)
	}
	if err := quick.Check(f, nil); err != nil { // -quickchecks sets the count
		t.Error(err)
	}
	if cov.crossedLazily == 0 || cov.builtEarly == 0 || cov.grandchildren == 0 {
		t.Errorf("the sequences did not reach every transition: %+v", cov)
	}

	if avg := testing.AllocsPerRun(100, func() { undrawn = New(1) }); avg != 1 {
		t.Fatalf("New allocates %v objects, want only the Source itself", avg)
	}
	// Serving the lazy draws allocates nothing at all.
	if avg := testing.AllocsPerRun(100, func() {
		s := New(42)
		for i := 0; i < lazyDraws; i++ {
			if i%3 == 0 {
				sinkFloat += s.Float64()
			} else {
				sinkInt += s.Int63()
			}
		}
	}); avg != 0 {
		t.Fatalf("New plus %d Int63 and Float64 draws allocates %v objects, want 0", lazyDraws, avg)
	}
}

var (
	undrawn   *Source
	sinkInt   int64
	sinkFloat float64
)

// The first draw of a new stream: what a switch's spray key and a port
// queue's first RED draw cost. math/rand builds and seeds its generator first.
func BenchmarkSourceFirstDraw(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkInt += New(int64(i)).Int63()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkInt += rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed must be a pure function")
	}
}

// Distinct label paths must yield distinct seeds, including the pairs the
// experiment harness relies on: consecutive runs, consecutive sweep points,
// and consecutive schemes under the same base seed.
func TestDeriveSeedDistinctness(t *testing.T) {
	seen := make(map[int64][]int64)
	add := func(seed int64, path ...int64) {
		if prev, dup := seen[seed]; dup {
			t.Fatalf("seed collision: labels %v and %v both give %d", prev, path, seed)
		}
		seen[seed] = path
	}
	for base := int64(0); base < 4; base++ {
		add(DeriveSeed(base), base, -1)
		for run := int64(0); run < 16; run++ {
			add(DeriveSeed(base, run), base, run)
			for scheme := int64(0); scheme < 3; scheme++ {
				add(DeriveSeed(base, run, scheme), base, run, scheme)
			}
		}
	}
}

// Seeds derived from adjacent bases must not produce correlated streams
// (the failure mode of additive seed schemes like seed+run*prime).
func TestDeriveSeedDecorrelatesAdjacentBases(t *testing.T) {
	a := New(DeriveSeed(1, 0))
	b := New(DeriveSeed(2, 0))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent-base derived seeds look correlated: %d/64 equal draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children look correlated: %d/64 equal draws", same)
	}
}

func TestPerm(t *testing.T) {
	src := New(5)
	p := src.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(6)
	for i := 0; i < 1000; i++ {
		if v := src.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
	if src.Intn(3) < 0 || src.Intn(3) > 2 {
		t.Fatal("Intn out of range")
	}
}

func TestConstant(t *testing.T) {
	d := Constant{D: 5 * units.Microsecond}
	if d.Sample(New(1)) != 5*units.Microsecond || d.Mean() != 5*units.Microsecond {
		t.Fatal("constant distribution broken")
	}
}

func TestUniformBounds(t *testing.T) {
	src := New(3)
	u := Uniform{Low: 10, High: 20}
	for i := 0; i < 1000; i++ {
		v := u.Sample(src)
		if v < 10 || v > 20 {
			t.Fatalf("uniform sample %v out of [10,20]", v)
		}
	}
	if u.Mean() != 15 {
		t.Fatalf("uniform mean = %v", u.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Low: 10, High: 10}
	if u.Sample(New(1)) != 10 {
		t.Fatal("degenerate uniform should return Low")
	}
}

func TestNormalNonNegative(t *testing.T) {
	src := New(9)
	n := Normal{Mu: 10, Sigma: 100}
	for i := 0; i < 5000; i++ {
		if n.Sample(src) < 0 {
			t.Fatal("normal must truncate at zero")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	src := New(11)
	ln := LogNormal{Median: units.Duration(420 * units.Nanosecond), Sigma: 0.5}
	var s []float64
	for i := 0; i < 20000; i++ {
		s = append(s, float64(ln.Sample(src)))
	}
	// Empirical median should be within 5% of the configured median.
	med := median(s)
	want := float64(420 * units.Nanosecond)
	if math.Abs(med-want)/want > 0.05 {
		t.Fatalf("lognormal empirical median %v, want ~%v", med, want)
	}
}

func TestExponentialMean(t *testing.T) {
	src := New(13)
	e := Exponential{MeanD: units.Duration(100)}
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(e.Sample(src))
	}
	got := sum / n
	if math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("exponential empirical mean %v, want ~100", got)
	}
}

func TestShifted(t *testing.T) {
	s := Shifted{Base: Constant{D: 5}, Offset: 7}
	if s.Sample(New(1)) != 12 || s.Mean() != 12 {
		t.Fatal("shifted distribution broken")
	}
}

func TestMixtureWeights(t *testing.T) {
	src := New(17)
	m := Mixture{Components: []Component{
		{Weight: 0.9, Dist: Constant{D: 1}},
		{Weight: 0.1, Dist: Constant{D: 1000}},
	}}
	fast := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Sample(src) == 1 {
			fast++
		}
	}
	frac := float64(fast) / n
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("fast-path fraction %v, want ~0.9", frac)
	}
	wantMean := 0.9*1 + 0.1*1000
	if math.Abs(float64(m.Mean())-wantMean) > 1 {
		t.Fatalf("mixture mean %v, want ~%v", m.Mean(), wantMean)
	}
}

func TestMixtureEmpty(t *testing.T) {
	var m Mixture
	if m.Sample(New(1)) != 0 || m.Mean() != 0 {
		t.Fatal("empty mixture should sample 0")
	}
}

func TestEmpirical(t *testing.T) {
	e := Empirical{Values: []units.Duration{1, 2, 3}}
	src := New(21)
	seen := map[units.Duration]bool{}
	for i := 0; i < 100; i++ {
		v := e.Sample(src)
		if v < 1 || v > 3 {
			t.Fatalf("empirical sample %v not in source values", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("empirical did not cover all values: %v", seen)
	}
	if e.Mean() != 2 {
		t.Fatalf("empirical mean = %v, want 2", e.Mean())
	}
	var empty Empirical
	if empty.Sample(src) != 0 || empty.Mean() != 0 {
		t.Fatal("empty empirical should sample 0")
	}
}

// Property: every distribution in the package returns non-negative samples.
func TestPropertyNonNegativeSamples(t *testing.T) {
	dists := []Distribution{
		Constant{D: 3},
		Uniform{Low: 0, High: 50},
		Normal{Mu: 5, Sigma: 50},
		LogNormal{Median: 100, Sigma: 2},
		Exponential{MeanD: 30},
		Shifted{Base: Exponential{MeanD: 10}, Offset: 2},
		Mixture{Components: []Component{{1, Constant{D: 4}}, {1, Normal{Mu: 1, Sigma: 10}}}},
		Empirical{Values: []units.Duration{0, 5, 9}},
	}
	f := func(seed int64) bool {
		src := New(seed)
		for _, d := range dists {
			for i := 0; i < 32; i++ {
				if d.Sample(src) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	for _, d := range []Distribution{
		Constant{D: 1}, Uniform{1, 2}, Normal{1, 2}, LogNormal{1, 0.5},
		Exponential{1}, Shifted{Constant{1}, 2}, Mixture{}, Empirical{},
	} {
		if d.String() == "" {
			t.Fatalf("%T has empty String()", d)
		}
	}
}

func median(s []float64) float64 {
	cp := append([]float64(nil), s...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
