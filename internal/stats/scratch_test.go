package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestScratchHandsOutDisjointZeroedSlices: slices from one cycle never
// overlap (appending to one cannot reach the next), come back zeroed after a
// Reset even though the memory was used, and a nil Scratch is the heap.
func TestScratchHandsOutDisjointZeroedSlices(t *testing.T) {
	var sc Scratch
	for cycle := 0; cycle < 4; cycle++ {
		sc.Reset()
		var got [][]float64
		for n := 0; n < 12; n++ {
			f := sc.Floats(n)
			if len(f) != n || cap(f) != n {
				t.Fatalf("cycle %d: Floats(%d) has len %d cap %d", cycle, n, len(f), cap(f))
			}
			for _, v := range f {
				if v != 0 {
					t.Fatalf("cycle %d: Floats(%d) not zeroed", cycle, n)
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
	if f := (*Scratch)(nil).Floats(3); len(f) != 3 {
		t.Fatal("nil Scratch did not allocate from the heap")
	}
	if (*Scratch)(nil).Floats(0) != nil || sc.Floats(0) != nil {
		t.Fatal("Floats(0) must be nil")
	}
}

// TestScratchResetKeepsLiveSlicesIntact: when a cycle outgrew the buffer,
// Reset replaces it rather than reusing it, so a slice from the old cycle
// that is still being read is not clobbered by the next one.
func TestScratchResetKeepsLiveSlicesIntact(t *testing.T) {
	var sc Scratch
	sc.Reset()
	sc.Floats(8) // spills: the buffer is empty
	sc.Reset()   // buffer now sized for the spill
	old := sc.Floats(8)
	for i := range old {
		old[i] = 7
	}
	sc.Floats(100) // spills again
	sc.Reset()     // replaces the buffer
	fresh := sc.Floats(8)
	for i := range fresh {
		fresh[i] = 9
	}
	for _, v := range old {
		if v != 7 {
			t.Fatal("a Reset after a spill reused memory still referenced")
		}
	}
}

// TestOLSInScratchMatchesHeap: the same regression through a reused Scratch
// and through the heap gives bit-identical results.
func TestOLSInScratchMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		n, p := 6+rng.Intn(20), 1+rng.Intn(4)
		a := NewMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a.Set(i, 0, 1)
			for j := 1; j < p; j++ {
				a.Set(i, j, float64(rng.Intn(40))) // zeros exercise gram's skip
			}
			b[i] = rng.NormFloat64() * 10
		}
		want, wantErr := OLS(nil, a, b)
		sc.Reset()
		got, gotErr := OLS(&sc, a, b)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scratch OLS %+v (%v) differs from heap OLS %+v (%v)", trial, got, gotErr, want, wantErr)
		}
	}
}

// TestGramMatchesTransposeMul: gram accumulates aᵀ·a exactly as the
// reference a.T().Mul(a) does, bit for bit, zeros and negative zeros
// included.
func TestGramMatchesTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n, p := 1+rng.Intn(24), 1+rng.Intn(5)
		a := NewMatrix(n, p)
		for i := range a.Data {
			switch rng.Intn(4) {
			case 0: // stays zero
			case 1:
				a.Data[i] = float64(rng.Intn(9) - 4)
			default:
				a.Data[i] = rng.NormFloat64() * 1e3
			}
		}
		want, err := a.T().Mul(a)
		if err != nil {
			t.Fatal(err)
		}
		got := gram(nil, a)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("gram is %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d: gram[%d] = %v, reference %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}
