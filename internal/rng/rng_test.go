package rng

import (
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

// A Source seeds its generator on the first draw. Through every method its
// stream is math/rand's for the same seed, Split is still "seed the child
// with the parent's next draw mixed with the label", and a source nobody draws
// from never builds a generator.
func TestLazySourceMatchesMathRand(t *testing.T) {
	draws := []struct {
		name string
		ours func(*Source) any
		ref  func(*rand.Rand) any
	}{
		{"Int63", func(s *Source) any { return s.Int63() }, func(r *rand.Rand) any { return r.Int63() }},
		{"Intn", func(s *Source) any { return s.Intn(1000) }, func(r *rand.Rand) any { return r.Intn(1000) }},
		{"Float64", func(s *Source) any { return s.Float64() }, func(r *rand.Rand) any { return r.Float64() }},
		{"NormFloat64", func(s *Source) any { return s.NormFloat64() }, func(r *rand.Rand) any { return r.NormFloat64() }},
		{"ExpFloat64", func(s *Source) any { return s.ExpFloat64() }, func(r *rand.Rand) any { return r.ExpFloat64() }},
		{"Perm", func(s *Source) any { return s.Perm(5) }, func(r *rand.Rand) any { return r.Perm(5) }},
	}
	const golden = 0x1e3779b97f4a7c15
	for _, seed := range []int64{0, 1, -1, 7, 42, math.MaxInt64, math.MinInt64, DeriveSeed(7, 3)} {
		for _, d := range draws {
			s, r := New(seed), rand.New(rand.NewSource(seed))
			if s.r != nil {
				t.Fatalf("New(%d) built its generator before any draw", seed)
			}
			for i := 0; i < 1000; i++ {
				if got, want := d.ours(s), d.ref(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, d.name, i, got, want)
				}
			}
		}
		for _, label := range []int64{0, 1, -5, 1<<16 | 2, math.MaxInt64} {
			parent, eager := New(seed), New(seed)
			child, byValue := parent.Split(label), New(seed).Child(label)
			want := New(eager.Int63() ^ label*golden)
			if child.r != nil || byValue.r != nil {
				t.Fatalf("seed %d label %d: an undrawn child has a generator", seed, label)
			}
			for i := 0; i < 1000; i++ {
				w := want.Int63()
				if got, got2 := child.Int63(), byValue.Int63(); got != w || got2 != w {
					t.Fatalf("seed %d label %d: child draw %d = %d (Split), %d (Child), eager definition gives %d",
						seed, label, i, got, got2, w)
				}
			}
			// Split consumed exactly one draw of the parent.
			if got, want := parent.Int63(), eager.Int63(); got != want {
				t.Fatalf("seed %d label %d: parent after Split draws %d, want %d", seed, label, got, want)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, func() { undrawn = New(1) }); avg != 1 {
		t.Fatalf("New allocates %v objects, want only the Source itself", avg)
	}
}

var undrawn *Source

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
