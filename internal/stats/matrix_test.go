package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestMatrixFromRowsRagged(t *testing.T) {
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", at.At(2, 1))
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system has the exact solution.
	a, _ := MatrixFromRows([][]float64{{2, 0}, {0, 4}})
	x, err := LeastSquares(nil, a, []float64{6, 8})
	if err != nil {
		t.Fatal(err)
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
	a, _ := MatrixFromRows(rows)
	x, err := LeastSquares(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-9) || !almostEq(x[1], 2, 1e-9) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(nil, a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected singularity error for collinear design")
	}
}

// Property: for random well-conditioned systems, the residual of the normal
// equations Aᵀ(Ax−b) is ~0 (characterizes the least-squares solution).
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 20, 3
		a := NewMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(nil, a, b)
		if err != nil {
			return true // singular random draw: vacuously fine
		}
		ax, _ := a.MulVec(x)
		r := make([]float64, n)
		for i := range r {
			r[i] = ax[i] - b[i]
		}
		atr, _ := a.T().MulVec(r)
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
	a, _ := MatrixFromRows([][]float64{{4, 1}, {1, 3}})
	inv, err := invertSPD(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(&inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Errorf("(a·a⁻¹)[%d][%d] = %v, want %v", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestInvertSPDNotPositiveDefinite(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := invertSPD(nil, a); err == nil {
		t.Fatal("expected error for non-SPD matrix")
	}
}
