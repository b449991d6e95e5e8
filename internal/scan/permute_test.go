package scan

import (
	"testing"
	"testing/quick"
)

func TestPermutationIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 16, 100, 1000, 4097} {
		p := NewPermutation(n, 42)
		seen := make(map[uint64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := p.Index(i)
			if v >= n {
				t.Fatalf("n=%d: Index(%d) = %d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate output %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: covered %d values", n, len(seen))
		}
	}
}

func TestPermutationBijectionProperty(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := uint64(nRaw%2000) + 1
		p := NewPermutation(n, seed)
		seen := make(map[uint64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := p.Index(i)
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationDeterministicPerSeed(t *testing.T) {
	a := NewPermutation(500, 7)
	b := NewPermutation(500, 7)
	c := NewPermutation(500, 8)
	same, diff := true, false
	for i := uint64(0); i < 500; i++ {
		if a.Index(i) != b.Index(i) {
			same = false
		}
		if a.Index(i) != c.Index(i) {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different permutations")
	}
	if !diff {
		t.Fatal("different seeds produced identical permutations")
	}
}

func TestPermutationActuallyShuffles(t *testing.T) {
	// The permutation must not be (close to) the identity.
	p := NewPermutation(1000, 3)
	fixed := 0
	for i := uint64(0); i < 1000; i++ {
		if p.Index(i) == i {
			fixed++
		}
	}
	if fixed > 50 {
		t.Fatalf("%d fixed points out of 1000", fixed)
	}
}

func TestPermutationSpreadsNeighbours(t *testing.T) {
	// Consecutive inputs should land far apart on average — that is the
	// whole point of scan-order randomization.
	p := NewPermutation(10000, 9)
	var sum float64
	for i := uint64(1); i < 10000; i++ {
		d := int64(p.Index(i)) - int64(p.Index(i-1))
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	// Uniformly random spacing averages ~N/3.
	if mean := sum / 9999; mean < 1500 {
		t.Fatalf("mean neighbour distance %.0f too small", mean)
	}
}

func TestPairKeyInjective(t *testing.T) {
	f := func(a uint32, pa uint16, b uint32, pb uint16) bool {
		if a == b && pa == pb {
			return pairKey(a, pa) == pairKey(b, pb)
		}
		return pairKey(a, pa) != pairKey(b, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
