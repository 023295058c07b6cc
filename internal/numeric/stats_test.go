package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("mean = %v", Mean(v))
	}
	if !almostEq(StdDev(v), math.Sqrt(1.25), 1e-12) {
		t.Fatalf("std = %v", StdDev(v))
	}
	if Median(v) != 2.5 {
		t.Fatalf("median = %v", Median(v))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
}

func TestMinMax(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	if m, i := Min(v); m != 1 || i != 1 {
		t.Fatalf("min = %v@%d", m, i)
	}
	if m, i := Max(v); m != 5 || i != 4 {
		t.Fatalf("max = %v@%d", m, i)
	}
	if _, i := Min(nil); i != -1 {
		t.Fatal("empty min should return -1")
	}
}

func TestGeoMean(t *testing.T) {
	if !almostEq(GeoMean([]float64{1, 4}), 2, 1e-12) {
		t.Fatal("geomean wrong")
	}
}

func TestArgSort(t *testing.T) {
	idx := ArgSort([]float64{3, 1, 2})
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("argsort = %v", idx)
	}
}

func TestNormalCDFPDF(t *testing.T) {
	if !almostEq(NormalCDF(0), 0.5, 1e-12) {
		t.Fatal("cdf(0) != 0.5")
	}
	if !almostEq(NormalCDF(1.96), 0.975, 1e-3) {
		t.Fatalf("cdf(1.96) = %v", NormalCDF(1.96))
	}
	if !almostEq(NormalPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Fatal("pdf(0) wrong")
	}
}

func TestStandardizerRoundTrip(t *testing.T) {
	v := []float64{10, 20, 30}
	s := FitStandardizer(v)
	for _, x := range v {
		if !almostEq(s.Invert(s.Apply(x)), x, 1e-9) {
			t.Fatal("round trip failed")
		}
	}
	z := make([]float64, len(v))
	for i, x := range v {
		z[i] = s.Apply(x)
	}
	if !almostEq(Mean(z), 0, 1e-12) || !almostEq(StdDev(z), 1, 1e-9) {
		t.Fatalf("standardized mean/std = %v/%v", Mean(z), StdDev(z))
	}
}

func TestYeoJohnsonRoundTripProperty(t *testing.T) {
	f := func(x float64, lraw float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
			return true
		}
		lambda := math.Mod(math.Abs(lraw), 4) - 2 // in [-2,2)
		y := YeoJohnson(x, lambda)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		back := YeoJohnsonInverse(y, lambda)
		return almostEq(back, x, 1e-6*(1+math.Abs(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestYeoJohnsonSpecialCases(t *testing.T) {
	if !almostEq(YeoJohnson(1, 0), math.Log(2), 1e-12) {
		t.Fatal("lambda=0 branch wrong")
	}
	if !almostEq(YeoJohnson(-1, 2), -math.Log(2), 1e-12) {
		t.Fatal("lambda=2 negative branch wrong")
	}
	// Identity at lambda=1 for x>=0.
	if !almostEq(YeoJohnson(3, 1), 3, 1e-12) {
		t.Fatal("lambda=1 should be identity-ish")
	}
}

func TestFitYeoJohnsonReducesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, 200)
	for i := range v {
		v[i] = math.Exp(rng.NormFloat64()) // lognormal: strongly right-skewed
	}
	lambda := FitYeoJohnson(v)
	skew := func(x []float64) float64 {
		m, s := Mean(x), StdDev(x)
		acc := 0.0
		for _, xi := range x {
			d := (xi - m) / s
			acc += d * d * d
		}
		return acc / float64(len(x))
	}
	tv := make([]float64, len(v))
	for i, x := range v {
		tv[i] = YeoJohnson(x, lambda)
	}
	if math.Abs(skew(tv)) >= math.Abs(skew(v)) {
		t.Fatalf("transform did not reduce skew: %v -> %v (lambda=%v)", skew(v), skew(tv), lambda)
	}
}

// fitYeoJohnsonFrozen is FitYeoJohnson as it was when every likelihood
// evaluation recomputed log1p|x| and allocated its transform.
func fitYeoJohnsonFrozen(v []float64) float64 {
	ll := func(lambda float64) float64 {
		t := make([]float64, len(v))
		for i, x := range v {
			t[i] = YeoJohnson(x, lambda)
		}
		sd := StdDev(t)
		if sd < 1e-12 {
			return math.Inf(-1)
		}
		l := -float64(len(v)) * math.Log(sd)
		for _, x := range v {
			l += (lambda - 1) * math.Copysign(math.Log1p(math.Abs(x)), 1)
		}
		return l
	}
	lo, hi := -2.0, 2.0
	phi := (math.Sqrt(5) - 1) / 2
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := ll(a), ll(b)
	for i := 0; i < 40; i++ {
		if fa > fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = ll(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = ll(b)
		}
	}
	return (lo + hi) / 2
}

// FitYeoJohnson picks bit for bit the lambda its frozen copy picks, on
// random vectors of every length up to 300 mixing negatives, zeros, repeats,
// tiny and huge magnitudes, and on the degenerate ones (empty, one value,
// all equal).
func TestFitYeoJohnsonMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cases := [][]float64{nil, {0}, {-3}, {2, 2, 2, 2}, {0, 0, 0}}
	for n := 1; n <= 300; n++ {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = 0
			case 1:
				if i > 0 {
					v[i] = v[rng.Intn(i)]
				}
			case 2:
				v[i] = -math.Exp(rng.NormFloat64() * 3)
			case 3:
				v[i] = rng.NormFloat64() * 1e-9
			default:
				v[i] = math.Exp(rng.NormFloat64()*4) - 1
			}
		}
		cases = append(cases, v)
	}
	for _, v := range cases {
		got, want := FitYeoJohnson(v), fitYeoJohnsonFrozen(v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FitYeoJohnson(%v) = %v (%#x), frozen %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := []int{1, 2, 3, 4, 5}
	Shuffle(rng, v)
	seen := map[int]bool{}
	for _, x := range v {
		seen[x] = true
	}
	if len(seen) != 5 {
		t.Fatalf("shuffle lost elements: %v", v)
	}
}
