// Package stats provides the small linear-algebra and statistics substrate
// used by the time-series models in internal/timeseries and by the analysis
// helpers across the repository.
//
// Only dense, column-major-free (row-major) matrices are provided; the sizes
// involved in RoVista's models are tiny (tens of rows, a handful of columns),
// so clarity is preferred over blocking or SIMD tricks.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("stats: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices; all rows must have equal length.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("stats: ragged rows: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("stats: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("stats: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("stats: matrix is singular or ill-conditioned")

// qrFactor holds the packed factors of a thin Householder QR factorization.
type qrFactor struct {
	a     Matrix    // packed R above diagonal, Householder vectors below
	rdiag []float64 // diagonal of R
}

// qrDecompose factors a copy of a, working in sc.
func qrDecompose(sc *Scratch, a *Matrix) (qrFactor, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return qrFactor{}, fmt.Errorf("stats: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := sc.Matrix(m, n)
	copy(qr.Data, a.Data)
	rdiag := sc.Floats(n)
	for k := 0; k < n; k++ {
		// Compute 2-norm of column k below row k without over/underflow.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			return qrFactor{}, ErrSingular
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return qrFactor{a: qr, rdiag: rdiag}, nil
}

// solve computes the least-squares solution of a*x = b given the
// factorization, working in sc.
func (f *qrFactor) solve(sc *Scratch, b []float64) ([]float64, error) {
	m, n := f.a.Rows, f.a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("stats: rhs length %d, want %d", len(b), m)
	}
	y := sc.Floats(m)
	copy(y, b)
	// Apply Householder transformations: y = Qᵀ b.
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += f.a.At(i, k) * y[i]
		}
		s = -s / f.a.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.a.At(i, k)
		}
	}
	// Back-substitute R x = y.
	x := sc.Floats(n)
	for k := n - 1; k >= 0; k-- {
		if math.Abs(f.rdiag[k]) < 1e-12 {
			return nil, ErrSingular
		}
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= f.a.At(k, j) * x[j]
		}
		x[k] = s / f.rdiag[k]
	}
	return x, nil
}

// LeastSquares solves min ‖a·x − b‖₂ via Householder QR and returns x,
// working in sc (nil: the heap).
func LeastSquares(sc *Scratch, a *Matrix, b []float64) ([]float64, error) {
	f, err := qrDecompose(sc, a)
	if err != nil {
		return nil, err
	}
	return f.solve(sc, b)
}
