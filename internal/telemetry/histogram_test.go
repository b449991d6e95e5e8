package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// logUniform draws n durations spread evenly over the decades from 1 ns to
// 100 s: every octave the histogram has below its last few is exercised.
func logUniform(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(math.Exp(rng.Float64() * math.Log(100e9)))
	}
	return out
}

func count(h *Histogram) (n uint64) {
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// TestQuantileAgainstExact: the order statistic sorted[⌊q·(n−1)⌋] of the raw
// samples is the oracle. 200,001 samples make q·(n−1) a whole number for
// every q below, so the oracle never interpolates and is exactly the order
// statistic the histogram's bound is stated against.
func TestQuantileAgainstExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		samples := logUniform(seed, 200_001)
		var h Histogram
		exact := make([]float64, len(samples))
		for i, v := range samples {
			h.Record(v)
			exact[i] = float64(v)
		}
		sort.Float64s(exact)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			want := exact[int(q*float64(len(exact)-1))]
			got := float64(h.Quantile(q))
			if err := math.Abs(got-want) / want; err > MaxRelativeError {
				t.Errorf("seed %d q=%v: %v, exact %v: relative error %.4f > %.4f", seed, q, got, want, err, MaxRelativeError)
			}
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram: Quantile = %d, want 0", got)
	}
}

// TestBucketsPartitionTheRange: the buckets tile [0, 2^48) with no gap or
// overlap, none is wider than 1/16 of its lower bound, every value lands in
// the bucket whose range holds it, and what lies outside is clamped.
func TestBucketsPartitionTheRange(t *testing.T) {
	var next int64
	for i := 0; i < numBuckets; i++ {
		lower, upper := bucketBounds(i)
		if lower != next || upper <= lower {
			t.Fatalf("bucket %d = [%d, %d), previous ended at %d", i, lower, upper, next)
		}
		if width := upper - lower; width > 1 && width*subCount > lower {
			t.Fatalf("bucket %d = [%d, %d) is wider than 1/%d of its lower bound", i, lower, upper, subCount)
		}
		for _, v := range []int64{lower, upper - 1} {
			if got := bucketOf(v); got != i {
				t.Fatalf("bucketOf(%d) = %d, want %d = [%d, %d)", v, got, i, lower, upper)
			}
		}
		next = upper
	}
	if next != 1<<(maxExp+1) {
		t.Fatalf("buckets end at %d, want 2^%d", next, maxExp+1)
	}
	for _, v := range logUniform(4, 100_000) {
		if lower, upper := bucketBounds(bucketOf(v)); v < lower || v >= upper {
			t.Fatalf("%d filed under [%d, %d)", v, lower, upper)
		}
	}
	if bucketOf(-1) != 0 || bucketOf(math.MinInt64) != 0 {
		t.Error("a negative value is not counted as 0")
	}
	if bucketOf(1<<(maxExp+1)) != numBuckets-1 || bucketOf(math.MaxInt64) != numBuckets-1 {
		t.Error("a value past the top octave is not counted in the last bucket")
	}
}

// TestConcurrentUse runs every method against one histogram at once (the
// race detector is the assertion) and checks that no count is lost.
func TestConcurrentUse(t *testing.T) {
	const writers, perWriter, reads = 4, 20_000, 50
	samples := logUniform(7, perWriter)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range samples {
				h.Record(v)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reads; i++ {
			if q := h.Quantile(0.99); q < 0 || q > 110e9 {
				t.Errorf("Quantile(0.99) = %d mid-run, outside anything recorded", q)
			}
		}
	}()
	wg.Wait()
	if got, want := count(&h), uint64(writers*perWriter); got != want {
		t.Fatalf("%d values counted, %d recorded", got, want)
	}
}

func TestRecordIsFreeAndSmall(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(123_456) }); n != 0 {
		t.Errorf("Record allocates %v times", n)
	}
	// No larger than the smallest thing it replaced: the 1,024-slot ring
	// embedded in every bgp.Graph.
	if size := unsafe.Sizeof(h); size > 8192 {
		t.Errorf("Histogram is %d bytes, want ≤ 8192", size)
	}
}

var sink int64

func BenchmarkRecord(b *testing.B) {
	samples := logUniform(8, 4096)
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			h.Record(samples[i&4095])
		}
	})
	sink = h.Quantile(0.5)
}
