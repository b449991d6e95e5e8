package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1 denominator: SS = 32, 32/7.
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single value should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDiff(t *testing.T) {
	d := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(d) != len(want) {
		t.Fatalf("len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil {
		t.Fatal("Diff of one element should be nil")
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if r0 := Autocorrelation(xs, 0); !almostEq(r0, 1, 1e-12) {
		t.Fatalf("lag-0 autocorrelation = %v, want 1", r0)
	}
	if r1 := Autocorrelation(xs, 1); math.Abs(r1) > 0.05 {
		t.Fatalf("lag-1 autocorrelation of white noise = %v, want ~0", r1)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// x_t = 0.8 x_{t-1} + w_t has lag-1 autocorrelation ≈ 0.8.
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 8000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + rng.NormFloat64()
	}
	if r1 := Autocorrelation(xs, 1); math.Abs(r1-0.8) > 0.05 {
		t.Fatalf("lag-1 autocorrelation = %v, want ~0.8", r1)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.1, 0.2, 0.7, 0.9, -1, 2}, 0, 1, 2)
	// -1 clamps to bin 0; 2 clamps to bin 1.
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("histogram = %v, want [3 3]", h)
	}
	if Histogram(nil, 1, 0, 2) != nil {
		t.Fatal("invalid range should return nil")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{-1.6448536269514722, 0.05},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEq(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Fatal("Quantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("Quantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) {
		t.Fatal("Quantile(-0.5) should be NaN")
	}
}

func TestNormalSFComplement(t *testing.T) {
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 4} {
		if s := NormalCDF(x) + NormalSF(x); !almostEq(s, 1, 1e-12) {
			t.Errorf("CDF+SF at %v = %v, want 1", x, s)
		}
	}
}

func TestOLSRecoverLine(t *testing.T) {
	// y = 3 + 0.5 t + noise; coefficient recovery within tolerance.
	rng := rand.New(rand.NewSource(3))
	n := 200
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, float64(i))
		b[i] = 3 + 0.5*float64(i) + rng.NormFloat64()*0.1
	}
	res, err := OLS(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Coef[0], 3, 0.1) || !almostEq(res.Coef[1], 0.5, 0.01) {
		t.Fatalf("coef = %v, want ~[3 0.5]", res.Coef)
	}
	if res.Sigma2 > 0.05 || res.Sigma2 <= 0 {
		t.Fatalf("sigma2 = %v, want ~0.01", res.Sigma2)
	}
	// Slope t-statistic should be enormous for a strong trend.
	if res.TStat(1) < 100 {
		t.Fatalf("t-stat = %v, want large", res.TStat(1))
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := OLS(nil, a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for underdetermined OLS")
	}
}
