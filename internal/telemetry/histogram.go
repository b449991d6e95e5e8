// Package telemetry is the one vocabulary rovistad's subsystems report in:
// a Histogram for "how long did it take" and a Source/Writer pair for "what
// are your numbers". Everything under /metrics is a Source walked by one
// renderer; every online latency quantile in the tree is a Histogram.
// Standard library only.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Bucket layout: values below 2·subCount are their own bucket; from there
// every octave [2^e, 2^(e+1)) is cut into subCount equal buckets, so a
// bucket's width is at most 1/subCount of its lower bound. The top octave
// ends at 2^(maxExp+1) ns, about 78 hours; anything longer is counted in the
// last bucket.
const (
	subBits    = 4
	subCount   = 1 << subBits
	maxExp     = 47
	numBuckets = (maxExp - subBits + 2) * subCount // 720
)

// MaxRelativeError bounds |Quantile(q) − x| / x, where x is the recorded
// value of the rank Quantile reports: a bucket is answered by its midpoint,
// half of 1/subCount away from either end.
const MaxRelativeError = 1.0 / (2 * subCount)

// Histogram is a fixed-bucket log-linear histogram of non-negative int64
// values — nanoseconds, everywhere it is used today. The zero value is
// ready, it embeds by value (5,760 bytes), and Record is one atomic add:
// no lock, no allocation, and no cache line that every writer shares, which
// the sampling rings it replaced had in their write index. Nothing ages out:
// quantiles are over everything recorded since the histogram was zero, so it
// is for durations of work that finishes, not of connections that are held.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket; negatives count as 0.
func bucketOf(v int64) int {
	if v < 2*subCount {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e ≥ subBits+1
	sub := int(v>>(e-subBits)) & (subCount - 1)
	return min((e-subBits+1)<<subBits|sub, numBuckets-1)
}

// bucketBounds returns bucket i's value range [lower, upper).
func bucketBounds(i int) (lower, upper int64) {
	if i < 2*subCount {
		return int64(i), int64(i) + 1
	}
	shift := i>>subBits - 1
	lower = int64(subCount|i&(subCount-1)) << shift
	return lower, lower + 1<<shift
}

// Record counts one value.
func (h *Histogram) Record(v int64) { h.buckets[bucketOf(v)].Add(1) }

// Quantile returns the value of 0-based rank ⌊q·(n−1)⌋ among the n values
// recorded so far, to within MaxRelativeError: exactly when it is below 32,
// else as the midpoint of its bucket. It returns 0 when nothing has been
// recorded. q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) int64 {
	// One pass to a private copy, so the total and the walk agree while
	// writers keep recording.
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(min(max(q, 0), 1) * float64(total-1))
	var seen uint64
	for i, n := range counts {
		if seen += n; seen > rank {
			lower, upper := bucketBounds(i)
			return lower + (upper-lower)/2
		}
	}
	panic("telemetry: rank beyond total") // seen reaches total > rank
}
