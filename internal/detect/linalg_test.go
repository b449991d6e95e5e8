package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// newMatrix, matrixFromRows, transpose, mul and mulVec are the plain
// references the tests check the detector's numerics against.

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// matrixFromRows builds a matrix from row slices; all rows must have equal
// length.
func matrixFromRows(rows [][]float64) (*matrix, error) {
	if len(rows) == 0 {
		return newMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := newMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("ragged rows: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// transpose returns the transpose of m as a new matrix.
func (m *matrix) transpose() *matrix {
	t := newMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.set(j, i, m.at(i, j))
		}
	}
	return t
}

// mul returns m * b.
func (m *matrix) mul(b *matrix) (*matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := newMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.at(k, j)
			}
		}
	}
	return out, nil
}

// mulVec returns m * v for a column vector v.
func (m *matrix) mulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("dimension mismatch %dx%d * vec(%d)", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// refFit, ols and invertSPD are the full least-squares fit the detector's
// fitOLS prunes: every coefficient's standard error, from the whole
// Cholesky inverse of XᵀX. fitOLS must agree with them bit for bit on what
// it reports (TestFitOLSMatchesOLS, FuzzDetect).

// refFit is the output of the full ordinary-least-squares fit.
type refFit struct {
	coef   []float64 // one per regressor column
	sigma2 float64   // residual variance, SSR / (n − p)
	stderr []float64 // standard error of each coefficient, from σ² (XᵀX)⁻¹
}

// tStat returns the t-statistic of coefficient j (coef/stderr).
func (r *refFit) tStat(j int) float64 {
	if r.stderr[j] == 0 {
		return math.Inf(1)
	}
	return r.coef[j] / r.stderr[j]
}

// ols fits b ≈ a·x by least squares and reports coefficients, residual
// variance and coefficient standard errors; ok is false when a has no more
// rows than columns or the fit is singular.
func ols(sc *scratch, a *matrix, b []float64) (refFit, bool) {
	if a.rows <= a.cols {
		return refFit{}, false
	}
	coef, ok := leastSquares(sc, a, b)
	if !ok {
		return refFit{}, false
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
	sigma2 := ssr / dof

	xtx := gram(sc, a)
	inv, ok := invertSPD(sc, &xtx)
	if !ok {
		return refFit{}, false
	}
	stderr := sc.floats(a.cols)
	for j := 0; j < a.cols; j++ {
		v := sigma2 * inv.at(j, j)
		if v < 0 {
			v = 0
		}
		stderr[j] = math.Sqrt(v)
	}
	return refFit{coef: coef, sigma2: sigma2, stderr: stderr}, true
}

// invertSPD inverts a symmetric positive-definite matrix via Cholesky; ok is
// false when a is not positive definite.
func invertSPD(sc *scratch, a *matrix) (matrix, bool) {
	n := a.rows
	// Cholesky factorization a = L Lᵀ.
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
	// Solve L Lᵀ X = I column by column.
	inv := sc.matrix(n, n)
	y := sc.floats(n)
	x := sc.floats(n)
	for c := 0; c < n; c++ {
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
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.at(k, i) * x[k]
			}
			x[i] = s / l.at(i, i)
		}
		for i := 0; i < n; i++ {
			inv.set(i, c, x[i])
		}
	}
	return inv, true
}

// sameFit reports where fitOLS's answer (with se1 when asked) departs from
// the full ols, bit for bit, or "" when it does not.
func sameFit(got olsFit, gotOK bool, want refFit, wantOK, se1 bool) string {
	if gotOK != wantOK {
		return fmt.Sprintf("ok %v, full fit %v", gotOK, wantOK)
	}
	if !gotOK {
		return ""
	}
	if len(got.coef) != len(want.coef) {
		return fmt.Sprintf("%d coefficients, full fit %d", len(got.coef), len(want.coef))
	}
	for j := range want.coef {
		if math.Float64bits(got.coef[j]) != math.Float64bits(want.coef[j]) {
			return fmt.Sprintf("coef[%d] %v, full fit %v", j, got.coef[j], want.coef[j])
		}
	}
	if math.Float64bits(got.sigma2) != math.Float64bits(want.sigma2) {
		return fmt.Sprintf("sigma2 %v, full fit %v", got.sigma2, want.sigma2)
	}
	if se1 && math.Float64bits(got.se1) != math.Float64bits(want.stderr[1]) {
		return fmt.Sprintf("se1 %v, full fit %v", got.se1, want.stderr[1])
	}
	if se1 && math.Float64bits(got.tStat1()) != math.Float64bits(want.tStat(1)) {
		return fmt.Sprintf("tStat1 %v, full fit %v", got.tStat1(), want.tStat(1))
	}
	return ""
}

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMatrixFromRows(t *testing.T) {
	m, err := matrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.rows != 3 || m.cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.rows, m.cols)
	}
	if m.at(2, 1) != 6 {
		t.Fatalf("at(2,1) = %v, want 6", m.at(2, 1))
	}
}

func TestMatrixFromRowsRagged(t *testing.T) {
	if _, err := matrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := matrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.at(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.at(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixMulDimensionMismatch(t *testing.T) {
	if _, err := newMatrix(2, 3).mul(newMatrix(2, 3)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.transpose()
	if at.rows != 3 || at.cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", at.rows, at.cols)
	}
	if at.at(2, 1) != 6 {
		t.Fatalf("at(2,1) = %v, want 6", at.at(2, 1))
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system has the exact solution.
	a, _ := matrixFromRows([][]float64{{2, 0}, {0, 4}})
	x, ok := leastSquares(new(scratch), a, []float64{6, 8})
	if !ok {
		t.Fatal("singular")
	}
	if !almostEq(x[0], 3, 1e-9) || !almostEq(x[1], 2, 1e-9) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// y = 1 + 2t sampled with no noise must be recovered exactly.
	var rows [][]float64
	var b []float64
	for t0 := 0; t0 < 10; t0++ {
		rows = append(rows, []float64{1, float64(t0)})
		b = append(b, 1+2*float64(t0))
	}
	a, _ := matrixFromRows(rows)
	x, ok := leastSquares(new(scratch), a, b)
	if !ok {
		t.Fatal("singular")
	}
	if !almostEq(x[0], 1, 1e-9) || !almostEq(x[1], 2, 1e-9) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, ok := leastSquares(new(scratch), a, []float64{1, 2, 3}); ok {
		t.Fatal("collinear design solved")
	}
}

// Property: for random well-conditioned systems, the residual of the normal
// equations Aᵀ(Ax−b) is ~0 (characterizes the least-squares solution).
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 20, 3
		a := newMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				a.set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, ok := leastSquares(new(scratch), a, b)
		if !ok {
			return true // singular random draw: vacuously fine
		}
		ax, _ := a.mulVec(x)
		r := make([]float64, n)
		for i := range r {
			r[i] = ax[i] - b[i]
		}
		atr, _ := a.transpose().mulVec(r)
		for _, v := range atr {
			if math.Abs(v) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertSPD(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{4, 1}, {1, 3}})
	inv, ok := invertSPD(new(scratch), a)
	if !ok {
		t.Fatal("not positive definite")
	}
	prod, _ := a.mul(&inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.at(i, j), want, 1e-9) {
				t.Errorf("(a·a⁻¹)[%d][%d] = %v, want %v", i, j, prod.at(i, j), want)
			}
		}
	}
}

func TestInvertSPDNotPositiveDefinite(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{0, 0}, {0, 0}})
	if _, ok := invertSPD(new(scratch), a); ok {
		t.Fatal("zero matrix inverted")
	}
}

// TestGramMatchesTransposeMul: gram accumulates aᵀ·a exactly as the
// reference a.transpose().mul(a) does, bit for bit, zeros and negative zeros
// included.
func TestGramMatchesTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n, p := 1+rng.Intn(24), 1+rng.Intn(5)
		a := newMatrix(n, p)
		for i := range a.data {
			switch rng.Intn(4) {
			case 0: // stays zero
			case 1:
				a.data[i] = float64(rng.Intn(9) - 4)
			default:
				a.data[i] = rng.NormFloat64() * 1e3
			}
		}
		want, err := a.transpose().mul(a)
		if err != nil {
			t.Fatal(err)
		}
		got := gram(new(scratch), a)
		if got.rows != want.rows || got.cols != want.cols {
			t.Fatalf("gram is %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
		}
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("trial %d: gram[%d] = %v, reference %v", trial, i, got.data[i], want.data[i])
			}
		}
	}
}

func TestOLSRecoverLine(t *testing.T) {
	// y = 3 + 0.5 t + noise; coefficient recovery within tolerance.
	rng := rand.New(rand.NewSource(3))
	n := 200
	a := newMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.set(i, 0, 1)
		a.set(i, 1, float64(i))
		b[i] = 3 + 0.5*float64(i) + rng.NormFloat64()*0.1
	}
	res, ok := ols(new(scratch), a, b)
	if !ok {
		t.Fatal("singular")
	}
	if !almostEq(res.coef[0], 3, 0.1) || !almostEq(res.coef[1], 0.5, 0.01) {
		t.Fatalf("coef = %v, want ~[3 0.5]", res.coef)
	}
	if res.sigma2 > 0.05 || res.sigma2 <= 0 {
		t.Fatalf("sigma2 = %v, want ~0.01", res.sigma2)
	}
	// Slope t-statistic should be enormous for a strong trend.
	if res.tStat(1) < 100 {
		t.Fatalf("t-stat = %v, want large", res.tStat(1))
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	if _, ok := ols(new(scratch), newMatrix(2, 3), []float64{1, 2}); ok {
		t.Fatal("underdetermined OLS fitted")
	}
}

// TestOLSReusedScratchMatchesFresh: the same regression through a reused
// scratch and through a fresh one gives bit-identical results.
func TestOLSReusedScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc scratch
	for trial := 0; trial < 200; trial++ {
		n, p := 6+rng.Intn(20), 1+rng.Intn(4)
		a := newMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a.set(i, 0, 1)
			for j := 1; j < p; j++ {
				a.set(i, j, float64(rng.Intn(40))) // zeros exercise gram's skip
			}
			b[i] = rng.NormFloat64() * 10
		}
		want, wantOK := fitOLS(new(scratch), a, b, p > 1)
		sc.reset()
		got, gotOK := fitOLS(&sc, a, b, p > 1)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused scratch %+v (%v) differs from fresh %+v (%v)", trial, got, gotOK, want, wantOK)
		}
	}
}

// TestFitOLSMatchesOLS: the pruned fit reports, bit for bit, what the full
// fit does — coefficients, residual variance, coefficient 1's standard error
// and t-statistic, and ok, including on singular and rank-deficient designs
// and ones whose XᵀX fails the Cholesky test. A one-column fit asked for
// se1 has none to give and reports zero.
func TestFitOLSMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc scratch
	for trial := 0; trial < 500; trial++ {
		n, p := 2+rng.Intn(20), 1+rng.Intn(5)
		a := newMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a.set(i, 0, 1)
			for j := 1; j < p; j++ {
				switch rng.Intn(5) {
				case 0: // zero: gram's skip, and rank deficiency in small designs
				case 1:
					a.set(i, j, a.at(i, j-1)) // a repeated column
				default:
					a.set(i, j, float64(rng.Intn(40)))
				}
			}
			b[i] = rng.NormFloat64() * 10
		}
		se1 := rng.Intn(4) != 0
		sc.reset()
		got, gotOK := fitOLS(&sc, a, b, se1)
		want, wantOK := ols(new(scratch), a, b)
		if d := sameFit(got, gotOK, want, wantOK, se1 && p > 1); d != "" {
			t.Fatalf("trial %d (%dx%d): %s", trial, n, p, d)
		}
		if p == 1 && got.se1 != 0 {
			t.Fatalf("trial %d (%dx1): se1 %v on a one-column fit", trial, n, got.se1)
		}
	}
}

// TestScratchHandsOutDisjointZeroedSlices: slices from one cycle never
// overlap (appending to one cannot reach the next) and come back zeroed
// after a reset even though the memory was used.
func TestScratchHandsOutDisjointZeroedSlices(t *testing.T) {
	var sc scratch
	for cycle := 0; cycle < 4; cycle++ {
		sc.reset()
		var got [][]float64
		for n := 0; n < 12; n++ {
			f := sc.floats(n)
			if len(f) != n || cap(f) != n {
				t.Fatalf("cycle %d: floats(%d) has len %d cap %d", cycle, n, len(f), cap(f))
			}
			for _, v := range f {
				if v != 0 {
					t.Fatalf("cycle %d: floats(%d) not zeroed", cycle, n)
				}
			}
			for i := range f {
				f[i] = float64(100*n + i + 1)
			}
			got = append(got, f)
		}
		for n, f := range got {
			for i, v := range f {
				if v != float64(100*n+i+1) {
					t.Fatalf("cycle %d: slice %d overwritten by a later one", cycle, n)
				}
			}
		}
	}
	if sc.spill != 0 || len(sc.buf) == 0 {
		t.Fatalf("after warm-up cycles the scratch still spills (spill=%d, buf=%d)", sc.spill, len(sc.buf))
	}
	if sc.floats(0) != nil {
		t.Fatal("floats(0) must be nil")
	}
}

// TestScratchResetKeepsLiveSlicesIntact: when a cycle outgrew the buffer,
// reset replaces it rather than reusing it, so a slice from the old cycle
// that is still being read is not clobbered by the next one.
func TestScratchResetKeepsLiveSlicesIntact(t *testing.T) {
	var sc scratch
	sc.reset()
	sc.floats(8) // spills: the buffer is empty
	sc.reset()   // buffer now sized for the spill
	old := sc.floats(8)
	for i := range old {
		old[i] = 7
	}
	sc.floats(100) // spills again
	sc.reset()     // replaces the buffer
	fresh := sc.floats(8)
	for i := range fresh {
		fresh[i] = 9
	}
	for _, v := range old {
		if v != 7 {
			t.Fatal("a reset after a spill reused memory still referenced")
		}
	}
}

func TestDiff(t *testing.T) {
	var sc scratch
	d := sc.diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(d) != len(want) {
		t.Fatalf("len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if sc.diff([]float64{1}) != nil {
		t.Fatal("diff of one element should be nil")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := meanOf(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	// Sample variance with n-1 denominator: SS = 32, 32/7.
	if s := stdDev(xs); !almostEq(s*s, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", s*s, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(meanOf(nil)) {
		t.Fatal("mean of nothing should be NaN")
	}
	if !math.IsNaN(stdDev([]float64{1})) {
		t.Fatal("standard deviation of a single value should be NaN")
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
		if got := normalCDF(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("normalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		x := normalQuantile(p)
		if got := normalCDF(x); !almostEq(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !almostEq(zAlpha, 1.6448536269514722, 1e-9) {
		t.Fatalf("zAlpha = %v, want Φ⁻¹(0.95)", zAlpha)
	}
}
