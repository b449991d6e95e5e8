package stats

// Scratch is a bump allocator for the float slices and matrices a model fit
// works in. The time-series fits behind one spike detection make several
// dozen small, short-lived slices; a caller that runs many fits hands the
// same Scratch to each and calls Reset in between, so steady state
// allocates nothing. Every function that takes a *Scratch accepts nil,
// which allocates from the heap as usual — the arithmetic is the same
// either way.
//
// Slices handed out alias the Scratch and are valid until its next Reset.
// A Scratch is not safe for concurrent use.
type Scratch struct {
	buf []float64
	off int
	// spill counts the floats served from the heap since the last Reset
	// because buf was full; Reset grows buf by at least that much.
	spill int
}

// Floats returns a zeroed slice of n floats (nil for n == 0). Its capacity
// is n, so appending to it never touches a neighbouring slice.
func (s *Scratch) Floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if s == nil {
		return make([]float64, n)
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

// Matrix returns a zero matrix of the given shape backed by s.
func (s *Scratch) Matrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic("stats: negative matrix dimension")
	}
	return Matrix{Rows: rows, Cols: cols, Data: s.Floats(rows * cols)}
}

// Diff returns the first difference xs[i+1] − xs[i]; length is len(xs)−1.
func (s *Scratch) Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := s.Floats(len(xs) - 1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// Reset invalidates everything handed out and makes the whole buffer
// available again. If the last cycle spilled to the heap the buffer is
// replaced by one large enough for it (slices still in use keep the old
// buffer alive, so a late reader never sees them overwritten by this).
func (s *Scratch) Reset() {
	if s.spill > 0 {
		s.buf = make([]float64, 2*(len(s.buf)+s.spill))
		s.spill = 0
	}
	s.off = 0
}
