package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// Zero when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1 // the epsilon absorbs 99.9/100*10000 = 9990.000000000002
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailCandidates are the percentiles a report may quote beside the median,
// highest first, in tenths of a percent.
var tailCandidates = []int{999, 990, 950, 900}

// tailPercentile applies the reporting rule: the highest candidate
// percentile that still has at least ten samples beyond it. Zero means the
// sample is too small for any tail and only the median may be quoted.
func tailPercentile(n int) float64 {
	for _, permille := range tailCandidates {
		if rank := (n*permille + 999) / 1000; n-rank >= 10 {
			return float64(permille) / 10
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the acceptance rule's steadiness measure: the distance
// between the first and third quartile as a share of the median, with the
// quartiles computed as Python's statistics.quantiles(xs, n=4) computes
// them (the "exclusive" method). It needs two samples; fewer report 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank, exclusive method
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with the 0/0 a layer that did no work produces reported as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunkRates cuts a sequence of completions into chunks of n and returns
// each chunk's rate: the weight completed in it over the time from the
// completion before the chunk to its last. done[i] is when an operation of
// weight[i] completed. A run's throughput is reported as the median chunk,
// which a burst of interference from outside the process (a noisy
// neighbour, a long collection) moves far less than it moves total/elapsed.
func chunkRates(done []time.Time, weight []float64, n int) []float64 {
	var rates []float64
	for i := n; i < len(done); i += n {
		var sum float64
		for _, w := range weight[i-n+1 : i+1] {
			sum += w
		}
		rates = append(rates, sum/done[i].Sub(done[i-n]).Seconds())
	}
	return rates
}
