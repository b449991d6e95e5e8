package ipid

import (
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

var (
	dstA = netip.MustParseAddr("192.0.2.1")
	dstB = netip.MustParseAddr("198.51.100.7")
)

func TestGlobalCounterMonotone(t *testing.T) {
	c := NewCounter(Global, 1)
	prev := c.Next(dstA)
	for i := 0; i < 100; i++ {
		dst := dstA
		if i%2 == 1 {
			dst = dstB
		}
		cur := c.Next(dst)
		if cur-prev != 1 {
			t.Fatalf("global counter step = %d, want 1", cur-prev)
		}
		prev = cur
	}
}

func TestGlobalCounterWraparound(t *testing.T) {
	c := NewCounter(Global, 1)
	c.global = 0xFFFE
	if v := c.Next(dstA); v != 0xFFFF {
		t.Fatalf("got %#x, want 0xFFFF", v)
	}
	if v := c.Next(dstA); v != 0 {
		t.Fatalf("got %#x after wrap, want 0", v)
	}
}

func TestPerDestinationIndependence(t *testing.T) {
	c := NewCounter(PerDestination, 2)
	a1 := c.Next(dstA)
	b1 := c.Next(dstB)
	a2 := c.Next(dstA)
	b2 := c.Next(dstB)
	if a2-a1 != 1 {
		t.Fatalf("per-dest A step = %d, want 1", a2-a1)
	}
	if b2-b1 != 1 {
		t.Fatalf("per-dest B step = %d, want 1", b2-b1)
	}
	// Interleaved traffic to B must not advance A's counter: sending many
	// packets to B then one to A still yields a single step on A.
	for i := 0; i < 50; i++ {
		c.Next(dstB)
	}
	a3 := c.Next(dstA)
	if a3-a2 != 1 {
		t.Fatalf("cross-destination leakage: step = %d", a3-a2)
	}
}

func TestRandomPolicyNotSequential(t *testing.T) {
	c := NewCounter(Random, 3)
	sequential := 0
	prev := c.Next(dstA)
	for i := 0; i < 200; i++ {
		cur := c.Next(dstA)
		if cur-prev == 1 {
			sequential++
		}
		prev = cur
	}
	if sequential > 5 {
		t.Fatalf("random policy produced %d sequential steps", sequential)
	}
}

func TestConstantPolicy(t *testing.T) {
	c := NewCounter(Constant, 4)
	for i := 0; i < 10; i++ {
		if v := c.Next(dstA); v != 0 {
			t.Fatalf("constant policy emitted %d", v)
		}
	}
}

func TestAdvance(t *testing.T) {
	c := NewCounter(Global, 5)
	before := c.Peek()
	c.Advance(37)
	if c.Peek()-before != 37 {
		t.Fatalf("Advance moved counter by %d, want 37", c.Peek()-before)
	}
	// Advance is a no-op for non-global counters.
	r := NewCounter(Random, 5)
	r.Advance(10)
	if r.Peek() != 0 {
		t.Fatal("Peek on non-global counter should be 0")
	}
}

func TestDeterministicSeeding(t *testing.T) {
	a := NewCounter(Global, 42)
	b := NewCounter(Global, 42)
	for i := 0; i < 20; i++ {
		if a.Next(dstA) != b.Next(dstA) {
			t.Fatal("same seed must produce identical sequences")
		}
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		Global: "global", PerDestination: "per-destination",
		Random: "random", Constant: "constant", Policy(9): "Policy(9)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// Property: under Global policy, after n sends the counter has advanced by
// exactly n mod 2^16 regardless of destination mix.
func TestGlobalAdvanceProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)
		c := NewCounter(Global, seed)
		start := c.Peek()
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				c.Next(dstB)
			} else {
				c.Next(dstA)
			}
		}
		return c.Peek()-start == uint16(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCounterNonMonotonic(t *testing.T) {
	c := NewCounter(Global, 42)
	c.SetSplit(4)
	if c.SplitWays() != 4 {
		t.Fatalf("SplitWays = %d, want 4", c.SplitWays())
	}
	// Lane scheduling is rng-driven; over a short run a 4-way split must
	// produce at least one backward step on the 16-bit ring — that is the
	// per-CPU-counter signature §4.2 qualification rejects.
	prev := c.Next(dstA)
	backward := false
	for i := 0; i < 64; i++ {
		id := c.Next(dstA)
		if int16(id-prev) <= 0 {
			backward = true
		}
		prev = id
	}
	if !backward {
		t.Fatal("4-way split counter stayed globally monotonic over 64 draws")
	}
}

func TestSplitIgnoredForNonGlobal(t *testing.T) {
	c := NewCounter(PerDestination, 42)
	c.SetSplit(4)
	if c.SplitWays() != 0 {
		t.Fatal("split must be a no-op for non-global policies")
	}
}

func TestSplitDeterministicPerSeed(t *testing.T) {
	draw := func() []uint16 {
		c := NewCounter(Global, 7)
		c.SetSplit(2)
		out := make([]uint16, 32)
		for i := range out {
			out[i] = c.Next(dstA)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed split counters diverged at draw %d", i)
		}
	}
}

func TestForkPreservesSplit(t *testing.T) {
	c := NewCounter(Global, 7)
	c.SetSplit(3)
	var f Counter
	c.ForkInto(&f, 99)
	if f.SplitWays() != 3 {
		t.Fatalf("fork lost the split: ways = %d", f.SplitWays())
	}
}

func TestResetAfterReRandomizes(t *testing.T) {
	c := NewCounter(Global, 7)
	base := NewCounter(Global, 7)
	c.ResetAfter(5)
	same := true
	for i := 0; i < 20; i++ {
		if c.Next(dstA) != base.Next(dstA) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("counter with a pending reset never diverged from its twin")
	}
}

func TestResetAfterAppliesOnce(t *testing.T) {
	a := NewCounter(Global, 7)
	b := NewCounter(Global, 7)
	a.ResetAfter(3)
	b.ResetAfter(3)
	for i := 0; i < 40; i++ {
		if a.Next(dstA) != b.Next(dstA) {
			t.Fatalf("identical reset schedules diverged at draw %d", i)
		}
	}
}

func TestAdvanceSpendsTowardReset(t *testing.T) {
	a := NewCounter(Global, 7)
	b := NewCounter(Global, 7)
	a.ResetAfter(5)
	b.ResetAfter(5)
	// Background traffic (Advance) must burn the reset budget exactly like
	// probe draws (Next) so the mid-round reset lands where it is seeded.
	a.Advance(5)
	b.Next(dstA)
	b.Next(dstA)
	b.Next(dstA)
	b.Next(dstA)
	b.Next(dstA)
	if a.Peek() == 0 && b.Peek() == 0 {
		t.Skip("both counters landed on zero (improbable)")
	}
}

// TestForkIntoMatchesFork: forking into a counter that already served a
// different host — another policy, per-destination entries, lanes of another
// width, a pending reset — gives the counter a fork into a new(Counter)
// does: the same fields and the same stream afterwards.
func TestForkIntoMatchesFork(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		ways   int
	}{
		{"global", Global, 0},
		{"global-split", Global, 4},
		{"per-destination", PerDestination, 0},
		{"random", Random, 0},
		{"constant", Constant, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewCounter(tc.policy, 7)
			src.SetSplit(tc.ways)
			for _, dirtyPolicy := range []Policy{Global, PerDestination} {
				var dst Counter
				dirty := NewCounter(dirtyPolicy, 13)
				dirty.SetSplit(6)
				dirty.ForkInto(&dst, 21)
				dst.Next(dstA)
				dst.Next(dstB)
				dst.ResetAfter(3)

				src.ForkInto(&dst, 99)
				fresh := new(Counter)
				src.ForkInto(fresh, 99)
				if dst.policy != fresh.policy || dst.global != fresh.global || dst.src != fresh.src ||
					dst.resetIn != fresh.resetIn || !slices.Equal(dst.lanes, fresh.lanes) ||
					(dst.perDest == nil) != (fresh.perDest == nil) || len(dst.perDest) != len(fresh.perDest) {
					t.Fatalf("fork-into fields differ from a fresh fork:\n into  %+v\n fresh %+v", dst, *fresh)
				}
				for i := 0; i < 200; i++ {
					d := dstA
					if i%3 == 0 {
						d = dstB
					}
					if i == 50 {
						dst.ResetAfter(4)
						fresh.ResetAfter(4)
					}
					if i%7 == 0 {
						dst.Advance(i % 5)
						fresh.Advance(i % 5)
					}
					if a, b := dst.Next(d), fresh.Next(d); a != b {
						t.Fatalf("fork-into stream diverged from a fresh fork at draw %d: %d vs %d", i, a, b)
					}
				}
			}
		})
	}
}
