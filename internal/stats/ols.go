package stats

import (
	"errors"
	"math"
)

// OLSResult holds the output of an ordinary-least-squares fit.
type OLSResult struct {
	Coef      []float64 // fitted coefficients, one per regressor column
	Residuals []float64 // b - a·coef
	Sigma2    float64   // residual variance, SSR / (n - p)
	N         int       // number of observations
	P         int       // number of regressors
	// StdErr holds the standard error of each coefficient (same order as
	// Coef). Computed from sigma² (XᵀX)⁻¹; used by the ADF t-statistic.
	StdErr []float64
}

// TStat returns the t-statistic of coefficient j (coef/stderr).
func (r *OLSResult) TStat(j int) float64 {
	if r.StdErr[j] == 0 {
		return math.Inf(1)
	}
	return r.Coef[j] / r.StdErr[j]
}

// OLS fits b ≈ a·x by least squares and reports coefficients, residuals,
// residual variance and coefficient standard errors. It works in sc (nil: the
// heap); with a Scratch, the result's slices are valid until its next Reset.
func OLS(sc *Scratch, a *Matrix, b []float64) (OLSResult, error) {
	if a.Rows != len(b) {
		return OLSResult{}, errors.New("stats: OLS design/response length mismatch")
	}
	if a.Rows <= a.Cols {
		return OLSResult{}, errors.New("stats: OLS needs more observations than regressors")
	}
	coef, err := LeastSquares(sc, a, b)
	if err != nil {
		return OLSResult{}, err
	}
	res := sc.Floats(len(b))
	ssr := 0.0
	for i := range b {
		fitted := 0.0
		for j, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			fitted += v * coef[j]
		}
		res[i] = b[i] - fitted
		ssr += res[i] * res[i]
	}
	dof := float64(a.Rows - a.Cols)
	sigma2 := ssr / dof

	// Coefficient covariance: sigma² (XᵀX)⁻¹. XᵀX is small (p×p), so its
	// Cholesky inverse is cheap at these sizes.
	xtx := gram(sc, a)
	inv, err := invertSPD(sc, &xtx)
	if err != nil {
		return OLSResult{}, err
	}
	stderr := sc.Floats(a.Cols)
	for j := 0; j < a.Cols; j++ {
		v := sigma2 * inv.At(j, j)
		if v < 0 {
			v = 0
		}
		stderr[j] = math.Sqrt(v)
	}
	return OLSResult{Coef: coef, Residuals: res, Sigma2: sigma2, N: a.Rows, P: a.Cols, StdErr: stderr}, nil
}

// gram returns aᵀ·a, accumulating each entry in the order a.T().Mul(a)
// does (over rows, skipping zero left factors) without forming aᵀ.
func gram(sc *Scratch, a *Matrix) Matrix {
	n := a.Cols
	out := sc.Matrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < a.Rows; k++ {
			v := a.At(k, i)
			if v == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += v * a.At(k, j)
			}
		}
	}
	return out
}

// invertSPD inverts a symmetric positive-definite matrix via Cholesky,
// working in sc.
func invertSPD(sc *Scratch, a *Matrix) (Matrix, error) {
	n := a.Rows
	if n != a.Cols {
		return Matrix{}, errors.New("stats: invertSPD requires a square matrix")
	}
	// Cholesky factorization a = L Lᵀ.
	l := sc.Matrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return Matrix{}, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	// Solve L Lᵀ X = I column by column.
	inv := sc.Matrix(n, n)
	y := sc.Floats(n)
	x := sc.Floats(n)
	for c := 0; c < n; c++ {
		for i := 0; i < n; i++ {
			e := 0.0
			if i == c {
				e = 1
			}
			s := e
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * y[k]
			}
			y[i] = s / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x[k]
			}
			x[i] = s / l.At(i, i)
		}
		for i := 0; i < n; i++ {
			inv.Set(i, c, x[i])
		}
	}
	return inv, nil
}
