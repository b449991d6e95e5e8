package timeseries

import (
	"math"

	"github.com/netsec-lab/rovista/internal/stats"
)

// ADFResult is the outcome of an Augmented Dickey-Fuller unit-root test with
// an intercept (the "constant, no trend" specification the paper needs: IP-ID
// growth-rate series have a level but no deterministic trend once stationary).
type ADFResult struct {
	Stat       float64 // t-statistic on γ in Δx_t = α + γ x_{t−1} + Σ δ_i Δx_{t−i} + ε_t
	Lags       int     // number of lagged differences included
	N          int     // effective observations
	Crit1      float64 // 1% critical value
	Crit5      float64 // 5% critical value
	Crit10     float64 // 10% critical value
	Degenerate bool    // true when the series was too short/constant to test
}

// StationaryAt reports whether the unit-root null is rejected at the given
// significance level (one of 0.01, 0.05, 0.10; anything else uses 5%).
func (r ADFResult) StationaryAt(alpha float64) bool {
	if r.Degenerate {
		// A constant series is trivially stationary.
		return true
	}
	crit := r.Crit5
	switch alpha {
	case 0.01:
		crit = r.Crit1
	case 0.10:
		crit = r.Crit10
	}
	return r.Stat < crit
}

// adfCritical returns MacKinnon-style finite-sample critical values for the
// constant-only ADF regression, interpolated by sample size.
func adfCritical(n int) (c1, c5, c10 float64) {
	// Response-surface coefficients (MacKinnon 1991/2010), constant case:
	// crit(n) ≈ β∞ + β1/n + β2/n².
	nn := float64(n)
	c1 = -3.43035 - 6.5393/nn - 16.786/(nn*nn)
	c5 = -2.86154 - 2.8903/nn - 4.234/(nn*nn)
	c10 = -2.56677 - 1.5384/nn - 2.809/(nn*nn)
	return
}

// ADF runs the Augmented Dickey-Fuller test on x with the given number of
// lagged difference terms. If lags < 0 the Schwert rule-of-thumb
// ⌊12·(n/100)^{1/4}⌋ capped to what the sample supports is used.
func ADF(x []float64, lags int) ADFResult { return adf(nil, x, lags) }

// adf is ADF working in sc (nil: the heap).
func adf(sc *stats.Scratch, x []float64, lags int) ADFResult {
	n := len(x)
	if n < 8 || isConstant(x) {
		return ADFResult{Degenerate: true}
	}
	if lags < 0 {
		lags = int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
	}
	// Each lag costs observations and a regressor; shrink until feasible.
	for lags > 0 && n-1-lags <= lags+3 {
		lags--
	}
	dx := sc.Diff(x)
	rows := len(dx) - lags
	cols := 2 + lags // intercept, x_{t-1}, lagged diffs
	if rows <= cols {
		return ADFResult{Degenerate: true}
	}
	a := sc.Matrix(rows, cols)
	b := sc.Floats(rows)
	for t := lags; t < len(dx); t++ {
		r := t - lags
		a.Set(r, 0, 1)
		a.Set(r, 1, x[t]) // x_{t-1} relative to dx index t (dx[t] = x[t+1]-x[t])
		for i := 1; i <= lags; i++ {
			a.Set(r, 1+i, dx[t-i])
		}
		b[r] = dx[t]
	}
	res, err := stats.OLS(sc, &a, b)
	if err != nil {
		return ADFResult{Degenerate: true}
	}
	c1, c5, c10 := adfCritical(rows)
	return ADFResult{
		Stat:   res.TStat(1),
		Lags:   lags,
		N:      rows,
		Crit1:  c1,
		Crit5:  c5,
		Crit10: c10,
	}
}

func isConstant(x []float64) bool {
	for i := 1; i < len(x); i++ {
		if x[i] != x[0] {
			return false
		}
	}
	return true
}
