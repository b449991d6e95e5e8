package detect

import "math"

// The numerics beneath the detector's fits: a bump allocator, dense
// row-major matrices, least squares by Householder QR, OLS with the one
// coefficient standard error the detector reads, and the normal
// distribution. The systems are tiny (tens
// of rows, a handful of columns), so clarity is preferred over blocking.

// scratch is a bump allocator for the float slices and matrices the fits
// behind one detection work in: several dozen small, short-lived slices.
// The workspace resets it before each detection, so steady state allocates
// nothing. Slices handed out alias the scratch and are valid until its next
// reset.
type scratch struct {
	buf []float64
	off int
	// spill counts the floats served from the heap since the last reset
	// because buf was full; reset grows buf by at least that much.
	spill int
}

// floats returns a zeroed slice of n floats (nil for n == 0). Its capacity
// is n, so appending to it never touches a neighbouring slice.
func (s *scratch) floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if s.off+n > len(s.buf) {
		s.spill += n
		return make([]float64, n)
	}
	f := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(f)
	return f
}

// matrix returns a zero matrix of the given shape backed by s.
func (s *scratch) matrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: s.floats(rows * cols)}
}

// diff returns the first difference xs[i+1] − xs[i] of a non-empty xs.
func (s *scratch) diff(xs []float64) []float64 {
	out := s.floats(len(xs) - 1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// reset invalidates everything handed out and makes the whole buffer
// available again. If the last cycle spilled to the heap the buffer is
// replaced by one large enough for it (slices still in use keep the old
// buffer alive, so a late reader never sees them overwritten by this).
func (s *scratch) reset() {
	if s.spill > 0 {
		s.buf = make([]float64, 2*(len(s.buf)+s.spill))
		s.spill = 0
	}
	s.off = 0
}

// matrix is a dense row-major matrix.
type matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

func (m *matrix) at(i, j int) float64 { return m.data[i*m.cols+j] }

func (m *matrix) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// leastSquares solves min ‖a·x − b‖₂ for a with at least as many rows as
// columns via Householder QR; ok is false when a is singular or
// ill-conditioned.
func leastSquares(sc *scratch, a *matrix, b []float64) (x []float64, ok bool) {
	m, n := a.rows, a.cols
	// Factor a copy of a: R above the diagonal, the Householder vectors
	// below it, R's diagonal in rdiag.
	qr := sc.matrix(m, n)
	copy(qr.data, a.data)
	rdiag := sc.floats(n)
	for k := 0; k < n; k++ {
		// Compute 2-norm of column k below row k without over/underflow.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.at(i, k))
		}
		if nrm == 0 {
			return nil, false
		}
		if qr.at(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.set(i, k, qr.at(i, k)/nrm)
		}
		qr.set(k, k, qr.at(k, k)+1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.at(i, k) * qr.at(i, j)
			}
			s = -s / qr.at(k, k)
			for i := k; i < m; i++ {
				qr.set(i, j, qr.at(i, j)+s*qr.at(i, k))
			}
		}
		rdiag[k] = -nrm
	}

	y := sc.floats(m)
	copy(y, b)
	// Apply Householder transformations: y = Qᵀ b.
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += qr.at(i, k) * y[i]
		}
		s = -s / qr.at(k, k)
		for i := k; i < m; i++ {
			y[i] += s * qr.at(i, k)
		}
	}
	// Back-substitute R x = y.
	x = sc.floats(n)
	for k := n - 1; k >= 0; k-- {
		if math.Abs(rdiag[k]) < 1e-12 {
			return nil, false
		}
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= qr.at(k, j) * x[j]
		}
		x[k] = s / rdiag[k]
	}
	return x, true
}

// olsFit is the output of an ordinary-least-squares fit.
type olsFit struct {
	coef   []float64 // one per regressor column
	sigma2 float64   // residual variance, SSR / (n − p)
	se1    float64   // standard error of coef[1], from σ² (XᵀX)⁻¹; 0 unless asked for
}

// tStat1 returns the t-statistic of coefficient 1 (coef/stderr) of a fit
// asked for its standard error.
func (r *olsFit) tStat1() float64 {
	if r.se1 == 0 {
		return math.Inf(1)
	}
	return r.coef[1] / r.se1
}

// fitOLS fits b ≈ a·x by least squares and reports coefficients and
// residual variance and, with se1 on two or more columns, coefficient 1's
// standard error — the one entry of the covariance σ² (XᵀX)⁻¹ the
// detector's t-tests read (a one-column fit has no coefficient 1). ok is
// false when a has no more rows than columns, the fit is singular, or XᵀX
// fails the Cholesky positive-definiteness test. It computes only what it
// reports, each value bit for bit what the full fit (ols in linalg_test.go:
// every standard error, from the whole inverse) gives. The result's slices
// live in sc.
func fitOLS(sc *scratch, a *matrix, b []float64, se1 bool) (olsFit, bool) {
	if a.rows <= a.cols {
		return olsFit{}, false
	}
	coef, ok := leastSquares(sc, a, b)
	if !ok {
		return olsFit{}, false
	}
	ssr := 0.0
	for i := range b {
		fitted := 0.0
		for j, v := range a.data[i*a.cols : (i+1)*a.cols] {
			fitted += v * coef[j]
		}
		res := b[i] - fitted
		ssr += res * res
	}
	dof := float64(a.rows - a.cols)
	fit := olsFit{coef: coef, sigma2: ssr / dof}

	// XᵀX is small (p×p): its Cholesky factor decides ok, and column 1 of
	// its inverse gives the one variance asked for.
	xtx := gram(sc, a)
	l, ok := cholesky(sc, &xtx)
	if !ok {
		return olsFit{}, false
	}
	if se1 && a.cols > 1 {
		v := fit.sigma2 * inverseAt(sc, &l, 1)
		if v < 0 {
			v = 0
		}
		fit.se1 = math.Sqrt(v)
	}
	return fit, true
}

// gram returns aᵀ·a, accumulating each entry in the order the reference
// a.transpose().mul(a) does (over rows, skipping zero left factors) without
// forming aᵀ.
func gram(sc *scratch, a *matrix) matrix {
	n := a.cols
	out := sc.matrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < a.rows; k++ {
			v := a.at(k, i)
			if v == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += v * a.at(k, j)
			}
		}
	}
	return out
}

// cholesky returns the lower-triangular L with a = L Lᵀ for a symmetric
// matrix a; ok is false when a is not positive definite.
func cholesky(sc *scratch, a *matrix) (matrix, bool) {
	n := a.rows
	l := sc.matrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.at(i, j)
			for k := 0; k < j; k++ {
				s -= l.at(i, k) * l.at(j, k)
			}
			if i == j {
				if s <= 0 {
					return matrix{}, false
				}
				l.set(i, i, math.Sqrt(s))
			} else {
				l.set(i, j, s/l.at(j, j))
			}
		}
	}
	return l, true
}

// inverseAt returns entry (c, c) of (L Lᵀ)⁻¹ for the Cholesky factor l:
// column c of the inverse by forward substitution (L y = e_c), then back
// substitution (Lᵀ x = y) stopped at row c.
func inverseAt(sc *scratch, l *matrix, c int) float64 {
	n := l.rows
	y := sc.floats(n)
	x := sc.floats(n)
	for i := 0; i < n; i++ {
		e := 0.0
		if i == c {
			e = 1
		}
		s := e
		for k := 0; k < i; k++ {
			s -= l.at(i, k) * y[k]
		}
		y[i] = s / l.at(i, i)
	}
	for i := n - 1; i >= c; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.at(k, i) * x[k]
		}
		x[i] = s / l.at(i, i)
	}
	return x[c]
}

// meanOf returns the arithmetic mean of xs.
func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdDev returns the sample standard deviation of xs (n−1 denominator).
func stdDev(xs []float64) float64 {
	m := meanOf(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// normalCDF returns Φ(x), the standard normal cumulative distribution
// function, using the complementary error function for numerical stability
// in the tails.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normalQuantile returns Φ⁻¹(p) for p ∈ (0, 1) using the Acklam/Wichura
// rational approximation refined with one Halley step; absolute error is
// below 1e-9 across the domain.
func normalQuantile(p float64) float64 {
	// Coefficients from Peter Acklam's inverse-normal approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}

	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement step.
	e := normalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
