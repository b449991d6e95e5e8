package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n−1 denominator),
// or NaN when fewer than two observations are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Diff returns the first difference xs[i+1] − xs[i]; length is len(xs)−1.
func Diff(xs []float64) []float64 { return (*Scratch)(nil).Diff(xs) }

// Autocovariance returns the lag-k sample autocovariance of xs.
func Autocovariance(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || k >= n {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for i := 0; i+k < n; i++ {
		s += (xs[i] - m) * (xs[i+k] - m)
	}
	return s / float64(n)
}

// Autocorrelation returns the lag-k sample autocorrelation of xs.
func Autocorrelation(xs []float64, k int) float64 {
	c0 := Autocovariance(xs, 0)
	if c0 == 0 {
		return math.NaN()
	}
	return Autocovariance(xs, k) / c0
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (which is copied).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample ≤ x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Len reports the sample size behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns (x, F(x)) pairs at the given x values, ready for plotting.
func (e *ECDF) Points(xs []float64) [][2]float64 {
	out := make([][2]float64, len(xs))
	for i, x := range xs {
		out[i] = [2]float64{x, e.At(x)}
	}
	return out
}

// Histogram counts the sample into equal-width bins over [lo, hi]. Values
// outside the range are clamped into the first/last bin.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	if bins <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts
}
