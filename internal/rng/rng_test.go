package rng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

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

// The stream is pinned literally, so a change to it fails here and not only in
// the golden epochs its spray keys and RED marks feed. The zero Source is
// seed 0's, and a child's stream is its parent's next draw mixed with the
// label.
func TestKnownAnswers(t *testing.T) {
	first3 := func(s *Source) [3]int64 { return [3]int64{s.Int63(), s.Int63(), s.Int63()} }
	parent := New(7)
	child := parent.Child(3)
	for _, tc := range []struct {
		name string
		got  [3]int64
		want [3]int64
	}{
		// SplitMix64's reference stream from seed 0 starts 0xe220a8397b1dcdaf.
		{"New(0)", first3(New(0)), [3]int64{0xe220a8397b1dcdaf >> 1, 3980143261097177850, 243808509735772839}},
		{"Source{}", first3(&Source{}), [3]int64{8147104208329303767, 3980143261097177850, 243808509735772839}},
		{"New(7)", first3(New(7)), [3]int64{3595544800446187243, 154844686297477902, 8308050873407804673}},
		{"New(7).Child(3)", first3(&child), [3]int64{4725840249844695778, 4299698954683710219, 2579439183957294195}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: first three Int63 = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// within fails the test unless got is within 4σ of want.
func within(t *testing.T, what string, got, want, sigma float64) {
	t.Helper()
	if math.Abs(got-want) > 4*sigma {
		t.Errorf("%s = %.6f, want %.6f ± %.6f (4σ)", what, got, want, 4*sigma)
	}
}

// The moments of each continuous draw at 10⁶ draws, each within 4σ of its
// sampling error: Float64 has mean 1/2 and variance 1/12 (the variance of
// (U−½)² is 1/180), NormFloat64 mean 0 and variance 1 (the variance of Z² is
// 2), and ExpFloat64 mean 1 (variance 1).
func TestMoments(t *testing.T) {
	const n = 1_000_000
	moments := func(draw func() float64, mu float64) (mean, variance float64) {
		var sum, sq float64
		for i := 0; i < n; i++ {
			d := draw() - mu
			sum += d
			sq += d * d
		}
		return mu + sum/n, sq / n
	}
	src := New(21)
	mean, variance := moments(src.Float64, 0.5)
	within(t, "Float64 mean", mean, 0.5, math.Sqrt(1.0/12/n))
	within(t, "Float64 variance", variance, 1.0/12, math.Sqrt(1.0/180/n))
	mean, variance = moments(src.NormFloat64, 0)
	within(t, "NormFloat64 mean", mean, 0, math.Sqrt(1.0/n))
	within(t, "NormFloat64 variance", variance, 1, math.Sqrt(2.0/n))
	mean, _ = moments(src.ExpFloat64, 1)
	within(t, "ExpFloat64 mean", mean, 1, math.Sqrt(1.0/n))
}

// Intn(64) and Intn(1000) fill 64 buckets as uniform draws would: χ² with 63
// degrees of freedom below 110 (p ≈ 2·10⁻⁴). Intn(1000)'s buckets are the
// values v with v·64/1000 = b, 15 or 16 of them each.
func TestIntnChiSquare(t *testing.T) {
	const draws, buckets = 640_000, 64
	src := New(23)
	for _, n := range []int{64, 1000} {
		var got, width [buckets]float64
		for v := 0; v < n; v++ {
			width[v*buckets/n]++
		}
		for i := 0; i < draws; i++ {
			got[src.Intn(n)*buckets/n]++
		}
		chi2 := 0.0
		for b := range got {
			want := draws * width[b] / float64(n)
			chi2 += (got[b] - want) * (got[b] - want) / want
		}
		if chi2 > 110 {
			t.Errorf("Intn(%d): χ² = %.1f over %d buckets, want < 110", n, chi2, buckets)
		}
	}
}

// At n = 3·2⁶¹ a draw reduced modulo n would fall below 2⁶¹ three times in
// eight, not once in three: Intn must reject the biased low words.
func TestIntnUnbiasedAtLargeN(t *testing.T) {
	const n, draws = 3 << 61, 1_000_000
	src := New(29)
	below := 0
	for i := 0; i < draws; i++ {
		if v := src.Intn(n); v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		} else if v < 1<<61 {
			below++
		}
	}
	within(t, "share of Intn(3<<61) below 2⁶¹", float64(below)/draws, 1.0/3, math.Sqrt(2.0/9/draws))
}

// correlation is Pearson's r over n paired Float64 draws.
func correlation(a, b *Source, n int) float64 {
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sa, sb, saa, sbb, sab = sa+x, sb+y, saa+x*x, sbb+y*y, sab+x*y
	}
	fn := float64(n)
	return (sab - sa*sb/fn) / math.Sqrt((saa-sa*sa/fn)*(sbb-sb*sb/fn))
}

// Siblings, and a parent and its child, draw uncorrelated streams: |r| < 0.01
// at 10⁵ paired draws (3σ), whether the child is held by value or pointer.
func TestChildAndSplitIndependence(t *testing.T) {
	const n = 100_000
	parent := New(7)
	c1 := parent.Child(1)
	c2 := parent.Split(2)
	if r := correlation(&c1, c2, n); math.Abs(r) >= 0.01 {
		t.Errorf("sibling correlation %.4f, want |r| < 0.01", r)
	}
	c3 := parent.Child(1)
	if r := correlation(parent, &c3, n); math.Abs(r) >= 0.01 {
		t.Errorf("parent-child correlation %.4f, want |r| < 0.01", r)
	}
}

// A Source is one word, and no method allocates.
func TestSourceIsOneWordAndAllocatesNothing(t *testing.T) {
	if n := unsafe.Sizeof(Source{}); n != 8 {
		t.Errorf("Source is %d bytes, want 8", n)
	}
	if avg := testing.AllocsPerRun(10, func() {
		s := New(42)
		for i := 0; i < 10_000; i++ {
			switch i % 7 {
			case 0:
				sinkInt += s.Int63()
			case 1:
				sinkFloat += s.Float64()
			case 2:
				sinkInt += int64(s.Intn(1 + i))
			case 3:
				sinkFloat += s.NormFloat64()
			case 4:
				sinkFloat += s.ExpFloat64()
			case 5:
				c := s.Child(int64(i))
				sinkInt += c.Int63()
			default:
				sinkInt += s.Split(int64(i)).Int63()
			}
		}
	}); avg != 0 {
		t.Fatalf("10⁴ mixed draws allocate %v objects, want 0", avg)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

var (
	sinkInt   int64
	sinkFloat float64
)

// The first draw of a new stream: what a switch's spray key and a port
// queue's first RED draw cost.
func BenchmarkSourceFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt += New(int64(i)).Int63()
	}
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

// Property: every distribution in the package returns non-negative samples.
func TestPropertyNonNegativeSamples(t *testing.T) {
	dists := []Distribution{
		Constant{D: 3},
		Normal{Mu: 5, Sigma: 50},
		LogNormal{Median: 100, Sigma: 2},
		Exponential{MeanD: 30},
		Shifted{Base: Exponential{MeanD: 10}, Offset: 2},
		Mixture{Components: []Component{{1, Constant{D: 4}}, {1, Normal{Mu: 1, Sigma: 10}}}},
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
		Constant{D: 1}, Normal{1, 2}, LogNormal{1, 0.5},
		Exponential{1}, Shifted{Constant{1}, 2}, Mixture{},
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
